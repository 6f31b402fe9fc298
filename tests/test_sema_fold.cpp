// Semantic analysis + constant folding + scalar evaluation tests.
#include <gtest/gtest.h>

#include "compiler/eval.hpp"
#include "hpf/fold.hpp"
#include "hpf/parser.hpp"
#include "hpf/sema.hpp"
#include "support/diagnostics.hpp"

namespace hpf90d {
namespace {

using front::Program;
using front::SymbolTable;

struct Analyzed {
  Program prog;
  SymbolTable symbols;
};

Analyzed analyze_body(std::string_view body) {
  Analyzed a{front::parse_program("program t\n" + std::string(body) +
                                  "\nend program t\n"),
             {}};
  a.symbols = front::analyze(a.prog);
  return a;
}

TEST(Sema, ImplicitTypingRule) {
  auto a = analyze_body("k = 1\nx = 2.0");
  EXPECT_EQ(a.symbols.at(a.symbols.find("k")).type, front::TypeBase::Integer);
  EXPECT_EQ(a.symbols.at(a.symbols.find("x")).type, front::TypeBase::Real);
}

TEST(Sema, ArrayCallDisambiguation) {
  auto a = analyze_body("real v(10)\nx = v(3) + max(1.0, 2.0)");
  const front::Expr& rhs = *a.prog.stmts[0]->rhs;
  EXPECT_EQ(rhs.args[0]->kind, front::ExprKind::ArrayRef);
  EXPECT_EQ(rhs.args[1]->kind, front::ExprKind::Call);
}

TEST(Sema, WrongSubscriptCountThrows) {
  EXPECT_THROW((void)analyze_body("real v(10)\nx = v(1, 2)"), support::CompileError);
}

TEST(Sema, UndeclaredArrayThrows) {
  EXPECT_THROW((void)analyze_body("x = q(1:5)"), support::CompileError);
}

TEST(Sema, RankAnnotation) {
  auto a = analyze_body("real a(4,5)\nreal b(4,5)\nb = a");
  EXPECT_EQ(a.prog.stmts[0]->lhs->rank, 2);
  EXPECT_EQ(a.prog.stmts[0]->rhs->rank, 2);
}

TEST(Sema, NonConformableAssignThrows) {
  EXPECT_THROW((void)analyze_body("real a(4,5)\nreal b(4)\nb = a"),
               support::CompileError);
}

TEST(Sema, NonConformableBinaryThrows) {
  EXPECT_THROW((void)analyze_body("real a(4,5)\nreal b(4)\nx = sum(a + b)"),
               support::CompileError);
}

TEST(Sema, TypePromotion) {
  auto a = analyze_body("double precision d\nk = 1\nx = d + k");
  EXPECT_EQ(a.prog.stmts[1]->rhs->type, front::TypeBase::Double);
}

TEST(Sema, ReductionRankRules) {
  auto a = analyze_body("real a(4,5)\nreal p(4)\nx = sum(a)\np = sum(a, 2)");
  EXPECT_EQ(a.prog.stmts[0]->rhs->rank, 0);
  EXPECT_EQ(a.prog.stmts[1]->rhs->rank, 1);
}

TEST(Sema, MaxlocRequiresRank1) {
  EXPECT_NO_THROW((void)analyze_body("real v(9)\nk = maxloc(v)"));
  EXPECT_THROW((void)analyze_body("real a(3,3)\nk = maxloc(a)"), support::CompileError);
}

TEST(Sema, CshiftTyping) {
  auto a = analyze_body("real v(8)\nreal w(8)\nw = cshift(v, 1)");
  EXPECT_EQ(a.prog.stmts[0]->rhs->rank, 1);
}

TEST(Sema, ForallMaskMustBeLogical) {
  EXPECT_THROW((void)analyze_body("real v(8)\nforall (i = 1:8, v(i)) v(i) = 0.0"),
               support::CompileError);
  EXPECT_NO_THROW(
      (void)analyze_body("real v(8)\nforall (i = 1:8, v(i) .gt. 0.0) v(i) = 0.0"));
}

TEST(Sema, ForallTargetMustUseEveryIndex) {
  // Many-to-one: every i stores to the whole of s (it used to reach the
  // simulator and crash it while computing a store offset).
  constexpr const char* kManyToOne = R"f90(
program p
  parameter (n = 16)
  real s(n)
!hpf$ template d(n)
!hpf$ align s(i) with d(i)
!hpf$ distribute d(block)
  forall (i = 1:n) s = s(i)*2.0
end program p
)f90";
  front::Program prog = front::parse_program(kManyToOne);
  try {
    (void)front::analyze(prog);
    ADD_FAILURE() << "many-to-one forall accepted";
  } catch (const support::CompileError& e) {
    EXPECT_NE(std::string(e.what()).find("forall index 'i'"), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)analyze_body("real v(8)\nforall (i = 1:8) v(1) = real(i)"),
               support::CompileError);
  EXPECT_THROW(
      (void)analyze_body("real a(4,4)\nforall (i = 1:4, j = 1:4) a(i,1) = real(j)"),
      support::CompileError);
  EXPECT_THROW((void)analyze_body("real v(8)\nreal w(8)\nforall (i = 1:8)\n"
                                  "where (w .gt. 0.0) v = 1.0\nend forall"),
               support::CompileError);
  EXPECT_THROW((void)analyze_body("real v(8)\nreal w(8)\nforall (i = 1:8)\n"
                                  "where (w .gt. 0.0)\nprint *, x\nv = 1.0\nend where\n"
                                  "end forall"),
               support::CompileError);
  EXPECT_NO_THROW(
      (void)analyze_body("real a(4,4)\nforall (i = 1:4, j = 1:4) a(i,5-j) = real(i+j)"));
  EXPECT_NO_THROW((void)analyze_body("real a(4,4)\nforall (i = 1:4) a(i,:) = 0.0"));
}

TEST(Sema, IfConditionMustBeScalarLogical) {
  EXPECT_THROW((void)analyze_body("real v(8)\nif (v .gt. 0.0) then\nx = 1\nend if"),
               support::CompileError);
}

TEST(Sema, IntrinsicArgCountChecked) {
  EXPECT_THROW((void)analyze_body("x = exp(1.0, 2.0)"), support::CompileError);
  EXPECT_THROW((void)analyze_body("x = mod(1)"), support::CompileError);
}

TEST(Sema, VectorSubscriptAccepted) {
  auto a = analyze_body("real e(8)\ninteger ix(8)\nreal v(8)\n"
                        "forall (i = 1:8) v(i) = e(ix(i))");
  SUCCEED();
}

TEST(Sema, VectorSubscriptMustBeInteger) {
  EXPECT_THROW((void)analyze_body("real e(8)\nreal rx(8)\nreal v(8)\n"
                                  "forall (i = 1:8) v(i) = e(rx(i))"),
               support::CompileError);
}

TEST(Sema, ParameterConstantsFolded) {
  auto a = analyze_body("parameter (n = 16, m = n*2)\nreal v(m)\nv(1) = 0.0");
  const front::Symbol& m = a.symbols.at(a.symbols.find("m"));
  ASSERT_TRUE(m.const_value.has_value());
  EXPECT_DOUBLE_EQ(*m.const_value, 32.0);
}

TEST(Sema, DuplicateDeclarationThrows) {
  EXPECT_THROW((void)analyze_body("real x\nreal x\nx = 1.0"), support::CompileError);
}

// --- fold ------------------------------------------------------------------

TEST(Fold, IntegerDivisionTruncates) {
  front::Bindings env;
  EXPECT_EQ(front::fold_int(*front::parse_expression_text("7/2"), env), 3);
  EXPECT_EQ(front::fold_int(*front::parse_expression_text("(0-7)/2"), env), -3);
}

TEST(Fold, MixedDivisionIsReal) {
  front::Bindings env;
  EXPECT_DOUBLE_EQ(front::fold_scalar(*front::parse_expression_text("7.0/2"), env), 3.5);
}

TEST(Fold, BindingsResolveNames) {
  front::Bindings env;
  env.set_int("n", 128);
  EXPECT_EQ(front::fold_int(*front::parse_expression_text("2*n + 1"), env), 257);
}

TEST(Fold, UnresolvedNameReturnsNullopt) {
  front::Bindings env;
  EXPECT_FALSE(front::try_fold(*front::parse_expression_text("n + 1"), env).has_value());
  EXPECT_THROW((void)front::fold_scalar(*front::parse_expression_text("n + 1"), env),
               support::CompileError);
}

TEST(Fold, IntrinsicFolding) {
  front::Bindings env;
  EXPECT_DOUBLE_EQ(front::fold_scalar(*front::parse_expression_text("sqrt(9.0)"), env), 3.0);
  EXPECT_EQ(front::fold_int(*front::parse_expression_text("mod(10, 3)"), env), 1);
  EXPECT_EQ(front::fold_int(*front::parse_expression_text("max(2, 7, 5)"), env), 7);
  EXPECT_EQ(front::fold_int(*front::parse_expression_text("int(3.9)"), env), 3);
}

TEST(Fold, BindingsMergePrecedence) {
  front::Bindings a, b;
  a.set_int("n", 1);
  b.set_int("n", 2);
  a.merge(b);
  EXPECT_DOUBLE_EQ(*a.get("n"), 2.0);
}

// --- scalar evaluation --------------------------------------------------------

TEST(Eval, SeededEnvironmentResolvesParams) {
  auto a = analyze_body("parameter (n = 64)\nk = n/2");
  compiler::ScalarEnv env(a.symbols.size());
  front::Bindings none;
  compiler::seed_environment(env, a.symbols, none);
  EXPECT_DOUBLE_EQ(
      compiler::eval_scalar(*a.prog.stmts[0]->rhs, env, nullptr, a.symbols), 32.0);
}

TEST(Eval, BindingOverridesParameter) {
  auto a = analyze_body("parameter (n = 64)\nk = n");
  compiler::ScalarEnv env(a.symbols.size());
  front::Bindings b;
  b.set_int("n", 256);
  compiler::seed_environment(env, a.symbols, b);
  EXPECT_DOUBLE_EQ(
      compiler::eval_scalar(*a.prog.stmts[0]->rhs, env, nullptr, a.symbols), 256.0);
}

TEST(Eval, ArrayAccessWithoutAccessorThrows) {
  auto a = analyze_body("real v(4)\nx = v(2)");
  compiler::ScalarEnv env(a.symbols.size());
  front::Bindings none;
  compiler::seed_environment(env, a.symbols, none);
  EXPECT_THROW((void)compiler::eval_scalar(*a.prog.stmts[0]->rhs, env, nullptr,
                                           a.symbols),
               support::CompileError);
  EXPECT_FALSE(compiler::try_eval_scalar(*a.prog.stmts[0]->rhs, env, nullptr,
                                         a.symbols)
                   .has_value());
}

TEST(Eval, IntegerSemanticsInEval) {
  auto a = analyze_body("i = 7\nj = 2\nk = i/j");
  compiler::ScalarEnv env(a.symbols.size());
  env.define(a.symbols.find("i"), 7);
  env.define(a.symbols.find("j"), 2);
  EXPECT_DOUBLE_EQ(
      compiler::eval_scalar(*a.prog.stmts[2]->rhs, env, nullptr, a.symbols), 3.0);
}

}  // namespace
}  // namespace hpf90d
