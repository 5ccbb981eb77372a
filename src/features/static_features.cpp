#include "features/static_features.hpp"

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"
#include "common/striped.hpp"
#include "frontend/builtins.hpp"

namespace tp::features {

using namespace tp::ir;

namespace {

/// What WorkExpr::eval substitutes for a parameter without a binding.
constexpr double kUnboundValue = 16.0;

}  // namespace

struct alignas(common::kCacheLineBytes) KernelFeatures::Compiled {
  /// One term of a flat polynomial: coeff times the values of the slots
  /// termVars[firstVar, firstVar + numVars), in monomial order.
  struct Term {
    double coeff = 0.0;
    std::uint32_t firstVar = 0;
    std::uint32_t numVars = 0;
  };

  KernelCounts counts;
  /// Sorted names of every parameter the counts mention; a slot is an
  /// index into it.
  std::vector<std::string> slots;
  /// Slot of kGlobalSizeParam; slots.size() when no count mentions it.
  std::size_t globalSizeSlot = 0;
  /// The terms of every count back to back: count c owns
  /// terms[polyBegin[c], polyBegin[c + 1]).
  std::vector<Term> terms;
  static_assert(kMaxFeatureSlots <= 256, "slot indices are stored as bytes");
  std::vector<std::uint8_t> termVars;
  std::array<std::uint32_t, kNumCounts + 1> polyBegin{};
  std::array<double, kNumStaticFeatures> staticVector{};

  /// Sums each flat polynomial in WorkExpr::eval's order.
  LaunchCounts evaluate(const double* slotValues) const {
    LaunchCounts out;
    for (std::size_t c = 0; c < kNumCounts; ++c) {
      double total = 0.0;
      for (std::uint32_t t = polyBegin[c]; t < polyBegin[c + 1]; ++t) {
        const Term& term = terms[t];
        double value = term.coeff;
        for (std::uint32_t v = 0; v < term.numVars; ++v) {
          value *= slotValues[termVars[term.firstVar + v]];
        }
        total += value;
      }
      out.values[c] = total;
    }
    return out;
  }
};

KernelFeatures::KernelFeatures() {
  static const KernelFeatures kEmpty{KernelCounts{}};
  compiled_ = kEmpty.compiled_;
}

KernelFeatures::KernelFeatures(KernelCounts counts) {
  // make_shared places the control block beside the payload, and every
  // Task copy writes its refcount: the terms a launch reads must not share
  // that cache line.
  static_assert(alignof(Compiled) == common::kCacheLineBytes);
  auto c = std::make_shared<Compiled>();
  c->counts = std::move(counts);
  const KernelCounts& k = c->counts;
  const WorkExpr arithmeticOps = k.floatOps + k.intOps + k.specialOps;
  const WorkExpr globalBytes = (k.globalLoads + k.globalStores) * 4.0;
  // In Count order.
  const std::array<const WorkExpr*, kNumCounts> polys = {
      &k.intOps,          &k.floatOps,       &k.specialOps,
      &k.globalLoads,     &k.globalStores,   &k.localAccesses,
      &k.privateAccesses, &k.branches,       &k.atomics,
      &k.barriers,        &arithmeticOps,    &globalBytes,
  };

  for (const WorkExpr* p : polys) {
    for (auto& name : p->parameters()) c->slots.push_back(std::move(name));
  }
  std::sort(c->slots.begin(), c->slots.end());
  c->slots.erase(std::unique(c->slots.begin(), c->slots.end()),
                 c->slots.end());
  TP_REQUIRE(c->slots.size() <= kMaxFeatureSlots,
             "kernel features mention " << c->slots.size()
                                        << " parameters; at most "
                                        << kMaxFeatureSlots
                                        << " are supported");
  auto slotOf = [&](const std::string& name) {
    return static_cast<std::size_t>(
        std::find(c->slots.begin(), c->slots.end(), name) - c->slots.begin());
  };
  c->globalSizeSlot = slotOf(kGlobalSizeParam);

  for (std::size_t i = 0; i < kNumCounts; ++i) {
    c->polyBegin[i] = static_cast<std::uint32_t>(c->terms.size());
    for (const auto& [monomial, coeff] : polys[i]->terms()) {
      Compiled::Term term;
      term.coeff = coeff;
      term.firstVar = static_cast<std::uint32_t>(c->termVars.size());
      term.numVars = static_cast<std::uint32_t>(monomial.size());
      for (const auto& var : monomial) {
        c->termVars.push_back(static_cast<std::uint8_t>(slotOf(var)));
      }
      c->terms.push_back(term);
    }
  }
  c->polyBegin[kNumCounts] = static_cast<std::uint32_t>(c->terms.size());

  std::array<double, kMaxFeatureSlots> unbound;
  unbound.fill(kUnboundValue);
  const LaunchCounts s = c->evaluate(unbound.data());
  c->staticVector = {
      s[Count::IntOps],
      s[Count::FloatOps],
      s[Count::SpecialOps],
      s[Count::GlobalLoads],
      s[Count::GlobalStores],
      s[Count::LocalAccesses],
      s[Count::PrivateAccesses],
      s[Count::Branches],
      s[Count::Atomics],
      s[Count::Barriers],
      static_cast<double>(k.numLoops),
      static_cast<double>(k.maxLoopDepth),
      static_cast<double>(k.numBuffers),
      k.usesLocalMemory ? 1.0 : 0.0,
      s.arithmeticIntensity(),
  };
  compiled_ = std::move(c);
}

const KernelCounts& KernelFeatures::counts() const noexcept {
  return compiled_->counts;
}

const std::array<double, kNumStaticFeatures>& KernelFeatures::staticVector()
    const noexcept {
  return compiled_->staticVector;
}

LaunchCounts KernelFeatures::evaluate(
    const std::map<std::string, double>& sizeBindings,
    std::size_t globalSize) const {
  const Compiled& c = *compiled_;
  // Both the slot table and the bindings are sorted by name: one merge
  // pass resolves every slot.
  std::array<double, kMaxFeatureSlots> values;
  auto binding = sizeBindings.begin();
  for (std::size_t s = 0; s < c.slots.size(); ++s) {
    while (binding != sizeBindings.end() && binding->first < c.slots[s]) {
      ++binding;
    }
    values[s] = binding != sizeBindings.end() && binding->first == c.slots[s]
                    ? binding->second
                    : kUnboundValue;
  }
  if (c.globalSizeSlot < c.slots.size()) {
    values[c.globalSizeSlot] = static_cast<double>(globalSize);
  }
  return c.evaluate(values.data());
}

namespace {

/// Converts an integer-valued IR expression into a symbolic WorkExpr for
/// trip-count analysis. Anything not analyzable becomes the unknown-trip
/// pseudo-parameter.
class TripCountAnalyzer {
public:
  explicit TripCountAnalyzer(const KernelDecl& kernel) : kernel_(kernel) {}

  WorkExpr analyze(const Expr& e, bool* exact) const {
    switch (e.kind()) {
      case ExprKind::IntLit:
        return WorkExpr::constant(
            static_cast<double>(static_cast<const IntLit&>(e).value()));
      case ExprKind::VarRef: {
        const auto& v = static_cast<const VarRef&>(e);
        if (kernel_.findParam(v.name()) != nullptr &&
            !v.type().isPointer() && v.type().isIntegral()) {
          return WorkExpr::variable(v.name());
        }
        *exact = false;
        return WorkExpr::variable(kUnknownTripParam);
      }
      case ExprKind::Binary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        const WorkExpr lhs = analyze(b.lhs(), exact);
        const WorkExpr rhs = analyze(b.rhs(), exact);
        switch (b.op()) {
          case BinaryOp::Add: return lhs + rhs;
          case BinaryOp::Sub: return lhs - rhs;
          case BinaryOp::Mul: return lhs * rhs;
          case BinaryOp::Div:
            if (rhs.isConstant() && rhs.constantTerm() != 0.0) {
              return lhs * (1.0 / rhs.constantTerm());
            }
            *exact = false;
            return WorkExpr::variable(kUnknownTripParam);
          case BinaryOp::Shr:
            if (rhs.isConstant()) {
              return lhs * (1.0 / static_cast<double>(
                                      1ll << static_cast<long long>(
                                          rhs.constantTerm())));
            }
            *exact = false;
            return WorkExpr::variable(kUnknownTripParam);
          case BinaryOp::Shl:
            if (rhs.isConstant()) {
              return lhs * static_cast<double>(
                               1ll << static_cast<long long>(
                                   rhs.constantTerm()));
            }
            [[fallthrough]];
          default:
            *exact = false;
            return WorkExpr::variable(kUnknownTripParam);
        }
      }
      case ExprKind::Call: {
        const auto& c = static_cast<const CallExpr&>(e);
        if (c.callee() == "get_global_size") {
          return WorkExpr::variable(kGlobalSizeParam);
        }
        *exact = false;
        return WorkExpr::variable(kUnknownTripParam);
      }
      case ExprKind::Cast:
        return analyze(static_cast<const CastExpr&>(e).value(), exact);
      default:
        *exact = false;
        return WorkExpr::variable(kUnknownTripParam);
    }
  }

private:
  const KernelDecl& kernel_;
};

class Extractor {
public:
  explicit Extractor(const KernelDecl& kernel)
      : kernel_(kernel), trips_(kernel) {}

  KernelCounts run() {
    f_.numParams = static_cast<int>(kernel_.params().size());
    for (const auto& p : kernel_.params()) {
      if (p.type.isPointer() && p.type.addrSpace() == AddrSpace::Global) {
        ++f_.numBuffers;
      }
      if (p.type.isPointer() && p.type.addrSpace() == AddrSpace::Local) {
        f_.usesLocalMemory = true;
      }
    }
    countStmt(kernel_.body(), WorkExpr::constant(1.0), 0);
    return std::move(f_);
  }

private:
  /// Count all operations in an rvalue expression, scaled by `mult`.
  void countExpr(const Expr& e, const WorkExpr& mult) {
    switch (e.kind()) {
      case ExprKind::IntLit:
      case ExprKind::FloatLit:
        break;
      case ExprKind::VarRef:
        break;
      case ExprKind::Unary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        addArith(u.type(), mult);
        countExpr(u.operand(), mult);
        break;
      }
      case ExprKind::Binary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        // Comparison cost follows the operand type, not the bool result.
        if (isComparison(b.op()) &&
            (b.lhs().type().isFloat() || b.rhs().type().isFloat())) {
          f_.floatOps += mult;
        } else {
          addArith(b.type(), mult);
        }
        countExpr(b.lhs(), mult);
        countExpr(b.rhs(), mult);
        break;
      }
      case ExprKind::Call: {
        const auto& c = static_cast<const CallExpr&>(e);
        countCall(c, mult);
        break;
      }
      case ExprKind::Index: {
        const auto& ix = static_cast<const IndexExpr&>(e);
        addMemoryAccess(ix.addrSpace(), mult, /*isStore=*/false);
        countExpr(ix.index(), mult);
        // Address computation: one integer op per subscript.
        f_.intOps += mult;
        break;
      }
      case ExprKind::Cast: {
        const auto& c = static_cast<const CastExpr&>(e);
        // int<->float conversions cost one ALU op; same-class casts are free.
        if (c.type().isFloat() != c.value().type().isFloat()) {
          f_.intOps += mult;
        }
        countExpr(c.value(), mult);
        break;
      }
      case ExprKind::Select: {
        const auto& s = static_cast<const SelectExpr&>(e);
        // Selects are usually compiled to predication: cheaper than a real
        // branch but still a divergence point — count half a branch.
        f_.branches += mult * 0.5;
        countExpr(s.cond(), mult);
        countExpr(s.ifTrue(), mult * kBalancedBranchWeight);
        countExpr(s.ifFalse(), mult * kBalancedBranchWeight);
        break;
      }
    }
  }

  void countCall(const CallExpr& c, const WorkExpr& mult) {
    const auto builtin = frontend::findBuiltin(c.callee());
    TP_ASSERT_MSG(builtin.has_value(), "unknown builtin " << c.callee());
    switch (builtin->cls) {
      case frontend::BuiltinClass::WorkItemQuery:
        // Reads a register set up by the runtime: ~one integer op.
        f_.intOps += mult;
        break;
      case frontend::BuiltinClass::MathLight:
        if (c.type().isFloat()) {
          f_.floatOps += mult;
        } else {
          f_.intOps += mult;
        }
        break;
      case frontend::BuiltinClass::MathHeavy:
        f_.specialOps += mult;
        break;
      case frontend::BuiltinClass::Atomic: {
        f_.atomics += mult;
        // atomic_add(&buf[i], v) appears in the IR as
        // atomic_add(buf[i], v); the IndexExpr argument is the RMW access.
        break;
      }
    }
    for (const auto& a : c.args()) {
      if (builtin->cls == frontend::BuiltinClass::Atomic &&
          a->kind() == ExprKind::Index) {
        const auto& ix = static_cast<const IndexExpr&>(*a);
        // The atomic performs the load+store itself.
        addMemoryAccess(ix.addrSpace(), mult, false);
        addMemoryAccess(ix.addrSpace(), mult, true);
        countExpr(ix.index(), mult);
        continue;
      }
      countExpr(*a, mult);
    }
  }

  void addArith(const Type& t, const WorkExpr& mult) {
    if (t.isFloat()) {
      f_.floatOps += mult;
    } else {
      f_.intOps += mult;
    }
  }

  void addMemoryAccess(AddrSpace space, const WorkExpr& mult, bool isStore) {
    switch (space) {
      case AddrSpace::Global:
        if (isStore) {
          f_.globalStores += mult;
        } else {
          f_.globalLoads += mult;
        }
        break;
      case AddrSpace::Local:
        f_.usesLocalMemory = true;
        f_.localAccesses += mult;
        break;
      case AddrSpace::Private:
        f_.privateAccesses += mult;
        break;
      case AddrSpace::None:
        TP_ASSERT(false);
    }
  }

  void countStmt(const Stmt& s, const WorkExpr& mult, int loopDepth) {
    f_.maxLoopDepth = std::max(f_.maxLoopDepth, loopDepth);
    switch (s.kind()) {
      case StmtKind::Decl: {
        const auto& d = static_cast<const DeclStmt&>(s);
        if (d.init() != nullptr) countExpr(*d.init(), mult);
        break;
      }
      case StmtKind::Assign: {
        const auto& a = static_cast<const AssignStmt&>(s);
        countExpr(a.value(), mult);
        if (a.target().kind() == ExprKind::Index) {
          const auto& ix = static_cast<const IndexExpr&>(a.target());
          addMemoryAccess(ix.addrSpace(), mult, /*isStore=*/true);
          countExpr(ix.index(), mult);
          f_.intOps += mult;  // address computation
        }
        break;
      }
      case StmtKind::ExprEval:
        countExpr(static_cast<const ExprStmt&>(s).expr(), mult);
        break;
      case StmtKind::Compound:
        for (const auto& st : static_cast<const CompoundStmt&>(s).stmts()) {
          countStmt(*st, mult, loopDepth);
        }
        break;
      case StmtKind::If: {
        const auto& i = static_cast<const IfStmt&>(s);
        countExpr(i.cond(), mult);
        f_.branches += mult;
        if (i.elseBody() == nullptr) {
          countStmt(i.thenBody(), mult * kThenOnlyWeight, loopDepth);
        } else {
          countStmt(i.thenBody(), mult * kBalancedBranchWeight, loopDepth);
          countStmt(*i.elseBody(), mult * kBalancedBranchWeight, loopDepth);
        }
        break;
      }
      case StmtKind::For: {
        const auto& l = static_cast<const ForStmt&>(s);
        ++f_.numLoops;
        bool exact = true;
        const WorkExpr init = trips_.analyze(l.init(), &exact);
        const WorkExpr bound = trips_.analyze(l.bound(), &exact);
        WorkExpr trip = (bound - init) * (1.0 / static_cast<double>(l.step()));
        if (!exact) f_.hasUnboundedLoop = true;
        countExpr(l.init(), mult);
        const WorkExpr bodyMult = mult * trip;
        // Per iteration: condition test + increment.
        countExpr(l.bound(), bodyMult);
        f_.intOps += bodyMult;  // comparison
        f_.intOps += bodyMult;  // increment
        // The backward branch of a counted loop is uniform across work items
        // (no divergence) and perfectly predicted — not counted as a branch.
        countStmt(l.body(), bodyMult, loopDepth + 1);
        break;
      }
      case StmtKind::While: {
        const auto& w = static_cast<const WhileStmt&>(s);
        ++f_.numLoops;
        f_.hasUnboundedLoop = true;
        const WorkExpr trip = WorkExpr::variable(kUnknownTripParam);
        const WorkExpr bodyMult = mult * trip;
        countExpr(w.cond(), bodyMult);
        f_.branches += bodyMult;
        countStmt(w.body(), bodyMult, loopDepth + 1);
        break;
      }
      case StmtKind::Barrier:
        f_.barriers += mult;
        break;
      case StmtKind::Return:
      case StmtKind::Break:
      case StmtKind::Continue:
        // Control-transfer: a branch decision.
        f_.branches += mult * 0.5;
        break;
    }
  }

  const KernelDecl& kernel_;
  TripCountAnalyzer trips_;
  KernelCounts f_;
};

}  // namespace

KernelFeatures extractFeatures(const KernelDecl& kernel) {
  return KernelFeatures(Extractor(kernel).run());
}

std::vector<std::string> staticFeatureNames() {
  return {
      "s_int_ops",     "s_float_ops",      "s_special_ops",
      "s_global_loads", "s_global_stores", "s_local_accesses",
      "s_private_accesses", "s_branches",  "s_atomics",
      "s_barriers",    "s_num_loops",      "s_max_loop_depth",
      "s_num_buffers", "s_uses_local_mem", "s_arith_intensity",
  };
}

std::vector<double> staticFeatureVector(const KernelFeatures& f) {
  const auto& v = f.staticVector();
  return std::vector<double>(v.begin(), v.end());
}

}  // namespace tp::features
