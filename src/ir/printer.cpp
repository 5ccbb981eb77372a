#include "ir/printer.hpp"

#include <sstream>

#include "common/str.hpp"

namespace tp::ir {

namespace {

void emitExpr(std::ostream& os, const Expr& e);

void emitParenExpr(std::ostream& os, const Expr& e) {
  // Parenthesize everything non-atomic; correctness over beauty.
  const bool atomic = e.kind() == ExprKind::IntLit ||
                      e.kind() == ExprKind::FloatLit ||
                      e.kind() == ExprKind::VarRef ||
                      e.kind() == ExprKind::Call ||
                      e.kind() == ExprKind::Index;
  if (atomic) {
    emitExpr(os, e);
  } else {
    os << '(';
    emitExpr(os, e);
    os << ')';
  }
}

void emitExpr(std::ostream& os, const Expr& e) {
  switch (e.kind()) {
    case ExprKind::IntLit: {
      const auto& n = static_cast<const IntLit&>(e);
      os << n.value();
      if (n.type().scalarKind() == Scalar::UInt) os << 'u';
      break;
    }
    case ExprKind::FloatLit: {
      const auto& n = static_cast<const FloatLit&>(e);
      std::ostringstream tmp;
      tmp << n.value();
      std::string s = tmp.str();
      // Ensure the literal reparses as float, not int.
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos) {
        s += ".0";
      }
      os << s << 'f';
      break;
    }
    case ExprKind::VarRef:
      os << static_cast<const VarRef&>(e).name();
      break;
    case ExprKind::Unary: {
      const auto& n = static_cast<const UnaryExpr&>(e);
      os << unaryOpName(n.op());
      emitParenExpr(os, n.operand());
      break;
    }
    case ExprKind::Binary: {
      const auto& n = static_cast<const BinaryExpr&>(e);
      emitParenExpr(os, n.lhs());
      os << ' ' << binaryOpName(n.op()) << ' ';
      emitParenExpr(os, n.rhs());
      break;
    }
    case ExprKind::Call: {
      const auto& n = static_cast<const CallExpr&>(e);
      os << n.callee() << '(';
      for (std::size_t i = 0; i < n.args().size(); ++i) {
        if (i > 0) os << ", ";
        emitExpr(os, *n.args()[i]);
      }
      os << ')';
      break;
    }
    case ExprKind::Index: {
      const auto& n = static_cast<const IndexExpr&>(e);
      emitParenExpr(os, n.base());
      os << '[';
      emitExpr(os, n.index());
      os << ']';
      break;
    }
    case ExprKind::Cast: {
      const auto& n = static_cast<const CastExpr&>(e);
      os << '(' << n.type().toString() << ')';
      emitParenExpr(os, n.value());
      break;
    }
    case ExprKind::Select: {
      const auto& n = static_cast<const SelectExpr&>(e);
      emitParenExpr(os, n.cond());
      os << " ? ";
      emitParenExpr(os, n.ifTrue());
      os << " : ";
      emitParenExpr(os, n.ifFalse());
      break;
    }
  }
}

void emitStmt(std::ostream& os, const Stmt& s, int indent);

void emitIndent(std::ostream& os, int indent) {
  for (int i = 0; i < indent; ++i) os << "  ";
}

void emitBlockOrStmt(std::ostream& os, const Stmt& s, int indent) {
  if (s.kind() == StmtKind::Compound) {
    emitStmt(os, s, indent);
  } else {
    // Wrap single statements in braces so reparse is unambiguous.
    emitIndent(os, indent);
    os << "{\n";
    emitStmt(os, s, indent + 1);
    emitIndent(os, indent);
    os << "}\n";
  }
}

void emitStmt(std::ostream& os, const Stmt& s, int indent) {
  switch (s.kind()) {
    case StmtKind::Decl: {
      const auto& n = static_cast<const DeclStmt&>(s);
      emitIndent(os, indent);
      if (n.arraySize() > 0) {
        os << n.declType().element().toString() << ' ' << n.name() << '['
           << n.arraySize() << "];\n";
      } else {
        os << n.declType().toString() << ' ' << n.name();
        if (n.init() != nullptr) {
          os << " = ";
          emitExpr(os, *n.init());
        }
        os << ";\n";
      }
      break;
    }
    case StmtKind::Assign: {
      const auto& n = static_cast<const AssignStmt&>(s);
      emitIndent(os, indent);
      emitExpr(os, n.target());
      os << " = ";
      emitExpr(os, n.value());
      os << ";\n";
      break;
    }
    case StmtKind::ExprEval: {
      const auto& n = static_cast<const ExprStmt&>(s);
      emitIndent(os, indent);
      emitExpr(os, n.expr());
      os << ";\n";
      break;
    }
    case StmtKind::Compound: {
      const auto& n = static_cast<const CompoundStmt&>(s);
      emitIndent(os, indent);
      os << "{\n";
      for (const auto& st : n.stmts()) emitStmt(os, *st, indent + 1);
      emitIndent(os, indent);
      os << "}\n";
      break;
    }
    case StmtKind::If: {
      const auto& n = static_cast<const IfStmt&>(s);
      emitIndent(os, indent);
      os << "if (";
      emitExpr(os, n.cond());
      os << ")\n";
      emitBlockOrStmt(os, n.thenBody(), indent);
      if (n.elseBody() != nullptr) {
        emitIndent(os, indent);
        os << "else\n";
        emitBlockOrStmt(os, *n.elseBody(), indent);
      }
      break;
    }
    case StmtKind::For: {
      const auto& n = static_cast<const ForStmt&>(s);
      emitIndent(os, indent);
      os << "for (int " << n.var() << " = ";
      emitExpr(os, n.init());
      os << "; " << n.var() << " < ";
      emitExpr(os, n.bound());
      os << "; " << n.var() << " += " << n.step() << ")\n";
      emitBlockOrStmt(os, n.body(), indent);
      break;
    }
    case StmtKind::While: {
      const auto& n = static_cast<const WhileStmt&>(s);
      emitIndent(os, indent);
      os << "while (";
      emitExpr(os, n.cond());
      os << ")\n";
      emitBlockOrStmt(os, n.body(), indent);
      break;
    }
    case StmtKind::Barrier:
      emitIndent(os, indent);
      os << "barrier(CLK_LOCAL_MEM_FENCE);\n";
      break;
    case StmtKind::Return: {
      const auto& n = static_cast<const ReturnStmt&>(s);
      emitIndent(os, indent);
      os << "return";
      if (n.value() != nullptr) {
        os << ' ';
        emitExpr(os, *n.value());
      }
      os << ";\n";
      break;
    }
    case StmtKind::Break:
      emitIndent(os, indent);
      os << "break;\n";
      break;
    case StmtKind::Continue:
      emitIndent(os, indent);
      os << "continue;\n";
      break;
  }
}

}  // namespace

std::string printExpr(const Expr& e) {
  std::ostringstream os;
  emitExpr(os, e);
  return os.str();
}

std::string printKernel(const KernelDecl& k) {
  std::ostringstream os;
  os << "__kernel void " << k.name() << "(";
  for (std::size_t i = 0; i < k.params().size(); ++i) {
    if (i > 0) os << ", ";
    const auto& p = k.params()[i];
    os << p.type.toString() << ' ' << p.name;
  }
  os << ")\n";
  emitStmt(os, k.body(), 0);
  return os.str();
}

}  // namespace tp::ir
