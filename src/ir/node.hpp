#pragma once

// Expression and statement nodes of the INSPIRE-lite IR.
//
// Ownership: every node owns its children through std::unique_ptr. Nodes are
// immutable after construction (analyses never mutate the tree). Every
// analysis traverses by switching on kind() and static_cast-ing to the
// concrete node type.

#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "ir/type.hpp"

namespace tp::ir {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  IntLit,
  FloatLit,
  VarRef,
  Unary,
  Binary,
  Call,
  Index,
  Cast,
  Select,
};

enum class UnaryOp { Neg, Not };

enum class BinaryOp {
  Add, Sub, Mul, Div, Mod,
  Lt, Le, Gt, Ge, Eq, Ne,
  LogicalAnd, LogicalOr,
  BitAnd, BitOr, BitXor, Shl, Shr,
};

const char* unaryOpName(UnaryOp op);
const char* binaryOpName(BinaryOp op);
bool isComparison(BinaryOp op);
bool isLogical(BinaryOp op);

class Expr {
public:
  virtual ~Expr() = default;
  ExprKind kind() const noexcept { return kind_; }
  const Type& type() const noexcept { return type_; }

protected:
  Expr(ExprKind kind, Type type) : kind_(kind), type_(type) {}

private:
  ExprKind kind_;
  Type type_;
};

using ExprPtr = std::unique_ptr<Expr>;

class IntLit final : public Expr {
public:
  IntLit(long long value, Type type = Type::intTy())
      : Expr(ExprKind::IntLit, type), value_(value) {}
  long long value() const noexcept { return value_; }

private:
  long long value_;
};

class FloatLit final : public Expr {
public:
  explicit FloatLit(double value)
      : Expr(ExprKind::FloatLit, Type::floatTy()), value_(value) {}
  double value() const noexcept { return value_; }

private:
  double value_;
};

class VarRef final : public Expr {
public:
  VarRef(std::string name, Type type)
      : Expr(ExprKind::VarRef, type), name_(std::move(name)) {}
  const std::string& name() const noexcept { return name_; }

private:
  std::string name_;
};

class UnaryExpr final : public Expr {
public:
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : Expr(ExprKind::Unary, operand->type()),
        op_(op),
        operand_(std::move(operand)) {}
  UnaryOp op() const noexcept { return op_; }
  const Expr& operand() const noexcept { return *operand_; }

private:
  UnaryOp op_;
  ExprPtr operand_;
};

class BinaryExpr final : public Expr {
public:
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs, Type type)
      : Expr(ExprKind::Binary, type),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}
  BinaryOp op() const noexcept { return op_; }
  const Expr& lhs() const noexcept { return *lhs_; }
  const Expr& rhs() const noexcept { return *rhs_; }

private:
  BinaryOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// Builtin call: work-item queries (get_global_id, ...) and math builtins
/// (sqrt, exp, ...). The frontend resolves callee names against the builtin
/// table in frontend/builtins.hpp.
class CallExpr final : public Expr {
public:
  CallExpr(std::string callee, std::vector<ExprPtr> args, Type type)
      : Expr(ExprKind::Call, type),
        callee_(std::move(callee)),
        args_(std::move(args)) {}
  const std::string& callee() const noexcept { return callee_; }
  const std::vector<ExprPtr>& args() const noexcept { return args_; }

private:
  std::string callee_;
  std::vector<ExprPtr> args_;
};

/// base[index] — a load when used as an rvalue, a store target in AssignStmt.
class IndexExpr final : public Expr {
public:
  IndexExpr(ExprPtr base, ExprPtr index)
      : Expr(ExprKind::Index, base->type().element()),
        base_(std::move(base)),
        index_(std::move(index)) {
    TP_ASSERT(base_->type().isPointer());
  }
  const Expr& base() const noexcept { return *base_; }
  const Expr& index() const noexcept { return *index_; }
  /// Address space of the accessed memory.
  AddrSpace addrSpace() const noexcept { return base_->type().addrSpace(); }

private:
  ExprPtr base_;
  ExprPtr index_;
};

class CastExpr final : public Expr {
public:
  CastExpr(Type to, ExprPtr value)
      : Expr(ExprKind::Cast, to), value_(std::move(value)) {}
  const Expr& value() const noexcept { return *value_; }

private:
  ExprPtr value_;
};

/// cond ? ifTrue : ifFalse
class SelectExpr final : public Expr {
public:
  SelectExpr(ExprPtr cond, ExprPtr ifTrue, ExprPtr ifFalse)
      : Expr(ExprKind::Select, ifTrue->type()),
        cond_(std::move(cond)),
        ifTrue_(std::move(ifTrue)),
        ifFalse_(std::move(ifFalse)) {}
  const Expr& cond() const noexcept { return *cond_; }
  const Expr& ifTrue() const noexcept { return *ifTrue_; }
  const Expr& ifFalse() const noexcept { return *ifFalse_; }

private:
  ExprPtr cond_;
  ExprPtr ifTrue_;
  ExprPtr ifFalse_;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind {
  Decl,
  Assign,
  ExprEval,
  Compound,
  If,
  For,
  While,
  Barrier,
  Return,
  Break,
  Continue,
};

class Stmt {
public:
  virtual ~Stmt() = default;
  StmtKind kind() const noexcept { return kind_; }

protected:
  explicit Stmt(StmtKind kind) : kind_(kind) {}

private:
  StmtKind kind_;
};

using StmtPtr = std::unique_ptr<Stmt>;

class DeclStmt final : public Stmt {
public:
  DeclStmt(std::string name, Type type, ExprPtr init /*may be null*/)
      : Stmt(StmtKind::Decl),
        name_(std::move(name)),
        type_(type),
        init_(std::move(init)) {}
  const std::string& name() const noexcept { return name_; }
  const Type& declType() const noexcept { return type_; }
  const Expr* init() const noexcept { return init_.get(); }
  /// For __private array declarations: number of elements (0 = scalar var).
  long long arraySize() const noexcept { return arraySize_; }
  void setArraySize(long long n) noexcept { arraySize_ = n; }

private:
  std::string name_;
  Type type_;
  ExprPtr init_;
  long long arraySize_ = 0;
};

/// target = value. target is a VarRef or IndexExpr (verified).
class AssignStmt final : public Stmt {
public:
  AssignStmt(ExprPtr target, ExprPtr value)
      : Stmt(StmtKind::Assign),
        target_(std::move(target)),
        value_(std::move(value)) {
    TP_ASSERT(target_->kind() == ExprKind::VarRef ||
              target_->kind() == ExprKind::Index);
  }
  const Expr& target() const noexcept { return *target_; }
  const Expr& value() const noexcept { return *value_; }

private:
  ExprPtr target_;
  ExprPtr value_;
};

class ExprStmt final : public Stmt {
public:
  explicit ExprStmt(ExprPtr expr)
      : Stmt(StmtKind::ExprEval), expr_(std::move(expr)) {}
  const Expr& expr() const noexcept { return *expr_; }

private:
  ExprPtr expr_;
};

class CompoundStmt final : public Stmt {
public:
  explicit CompoundStmt(std::vector<StmtPtr> stmts = {})
      : Stmt(StmtKind::Compound), stmts_(std::move(stmts)) {}
  const std::vector<StmtPtr>& stmts() const noexcept { return stmts_; }
  void append(StmtPtr s) { stmts_.push_back(std::move(s)); }

private:
  std::vector<StmtPtr> stmts_;
};

class IfStmt final : public Stmt {
public:
  IfStmt(ExprPtr cond, StmtPtr thenBody, StmtPtr elseBody /*may be null*/)
      : Stmt(StmtKind::If),
        cond_(std::move(cond)),
        then_(std::move(thenBody)),
        else_(std::move(elseBody)) {}
  const Expr& cond() const noexcept { return *cond_; }
  const Stmt& thenBody() const noexcept { return *then_; }
  const Stmt* elseBody() const noexcept { return else_.get(); }

private:
  ExprPtr cond_;
  StmtPtr then_;
  StmtPtr else_;
};

/// Canonical counted loop: for (int var = init; var < bound; var += step).
/// The frontend only produces ForStmt for loops matching this shape, which
/// lets feature extraction derive a symbolic trip count
/// ceil((bound - init) / step); everything else becomes WhileStmt.
class ForStmt final : public Stmt {
public:
  ForStmt(std::string var, ExprPtr init, ExprPtr bound, long long step,
          StmtPtr body)
      : Stmt(StmtKind::For),
        var_(std::move(var)),
        init_(std::move(init)),
        bound_(std::move(bound)),
        step_(step),
        body_(std::move(body)) {
    TP_ASSERT(step_ > 0);
  }
  const std::string& var() const noexcept { return var_; }
  const Expr& init() const noexcept { return *init_; }
  const Expr& bound() const noexcept { return *bound_; }
  long long step() const noexcept { return step_; }
  const Stmt& body() const noexcept { return *body_; }

private:
  std::string var_;
  ExprPtr init_;
  ExprPtr bound_;
  long long step_;
  StmtPtr body_;
};

class WhileStmt final : public Stmt {
public:
  WhileStmt(ExprPtr cond, StmtPtr body)
      : Stmt(StmtKind::While), cond_(std::move(cond)), body_(std::move(body)) {}
  const Expr& cond() const noexcept { return *cond_; }
  const Stmt& body() const noexcept { return *body_; }

private:
  ExprPtr cond_;
  StmtPtr body_;
};

/// barrier(CLK_LOCAL_MEM_FENCE | CLK_GLOBAL_MEM_FENCE)
class BarrierStmt final : public Stmt {
public:
  BarrierStmt() : Stmt(StmtKind::Barrier) {}
};

class ReturnStmt final : public Stmt {
public:
  explicit ReturnStmt(ExprPtr value /*may be null*/)
      : Stmt(StmtKind::Return), value_(std::move(value)) {}
  const Expr* value() const noexcept { return value_.get(); }

private:
  ExprPtr value_;
};

class BreakStmt final : public Stmt {
public:
  BreakStmt() : Stmt(StmtKind::Break) {}
};

class ContinueStmt final : public Stmt {
public:
  ContinueStmt() : Stmt(StmtKind::Continue) {}
};

// ---------------------------------------------------------------------------
// Kernel and program
// ---------------------------------------------------------------------------

/// Formal parameter of a kernel. Pointer parameters in __global space are
/// the buffers the multi-device backend must distribute.
struct Param {
  std::string name;
  Type type;
};

class KernelDecl {
public:
  KernelDecl(std::string name, std::vector<Param> params,
             std::unique_ptr<CompoundStmt> body)
      : name_(std::move(name)),
        params_(std::move(params)),
        body_(std::move(body)) {}

  const std::string& name() const noexcept { return name_; }
  const std::vector<Param>& params() const noexcept { return params_; }
  const CompoundStmt& body() const noexcept { return *body_; }

  const Param* findParam(const std::string& name) const {
    for (const auto& p : params_) {
      if (p.name == name) return &p;
    }
    return nullptr;
  }

private:
  std::string name_;
  std::vector<Param> params_;
  std::unique_ptr<CompoundStmt> body_;
};

/// A translation unit: one or more kernels (the suite uses one per program).
class Program {
public:
  explicit Program(std::vector<std::unique_ptr<KernelDecl>> kernels)
      : kernels_(std::move(kernels)) {}

  const std::vector<std::unique_ptr<KernelDecl>>& kernels() const noexcept {
    return kernels_;
  }

  const KernelDecl* findKernel(const std::string& name) const {
    for (const auto& k : kernels_) {
      if (k->name() == name) return k.get();
    }
    return nullptr;
  }

private:
  std::vector<std::unique_ptr<KernelDecl>> kernels_;
};

}  // namespace tp::ir
