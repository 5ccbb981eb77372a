#pragma once

// Static program feature extraction (paper §2: "static program features,
// whose values can be extracted from the source code at compile time").
//
// Features are *symbolic*: per-work-item operation counts are polynomials
// (ir::WorkExpr) over the kernel's integer parameters. A matmul kernel with
// inner dimension K yields floatOps = 2*K per work item. Binding K at launch
// time turns the static description into the paper's problem-size dependent
// *runtime features* — see runtime_features.hpp.

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/node.hpp"
#include "ir/workexpr.hpp"

namespace tp::features {

/// What the analyzer counts for one kernel: per-work-item symbolic
/// operation counts plus structural counters.
struct KernelCounts {
  // Symbolic per-work-item counts.
  ir::WorkExpr intOps;        ///< integer ALU ops (incl. address arithmetic)
  ir::WorkExpr floatOps;      ///< float add/sub/mul/div + light math builtins
  ir::WorkExpr specialOps;    ///< sqrt/exp/log/sin/cos/pow/rsqrt
  ir::WorkExpr globalLoads;   ///< loads from __global buffers
  ir::WorkExpr globalStores;  ///< stores to __global buffers
  ir::WorkExpr localAccesses; ///< loads+stores on __local memory
  ir::WorkExpr privateAccesses; ///< accesses to __private arrays
  ir::WorkExpr branches;      ///< control-flow decisions (if/select/loop exits)
  ir::WorkExpr atomics;       ///< atomic RMW ops on global memory
  ir::WorkExpr barriers;      ///< work-group barriers executed per item

  // Structural (plain integers).
  int numLoops = 0;
  int maxLoopDepth = 0;
  int numParams = 0;
  int numBuffers = 0;       ///< __global pointer parameters
  bool usesLocalMemory = false;
  bool hasUnboundedLoop = false;  ///< contains a while / unknown-trip loop
};

/// The per-work-item counts one launch evaluates: the ten symbolic counts
/// of KernelCounts in declaration order, then the two derived sums.
enum class Count : std::uint8_t {
  IntOps,
  FloatOps,
  SpecialOps,
  GlobalLoads,
  GlobalStores,
  LocalAccesses,
  PrivateAccesses,
  Branches,
  Atomics,
  Barriers,
  ArithmeticOps,  ///< floatOps + intOps + specialOps
  GlobalBytes,    ///< (globalLoads + globalStores) * 4
};
inline constexpr std::size_t kNumCounts = 12;

/// Every count of one kernel bound to one launch's problem size.
struct LaunchCounts {
  std::array<double, kNumCounts> values{};

  double operator[](Count c) const noexcept {
    return values[static_cast<std::size_t>(c)];
  }
  /// Compute-to-memory ratio (flops per byte; 0 when the kernel touches
  /// no global memory).
  double arithmeticIntensity() const noexcept {
    const double bytes = (*this)[Count::GlobalBytes];
    return bytes <= 0.0 ? 0.0 : (*this)[Count::ArithmeticOps] / bytes;
  }
};

/// Most distinct parameters (size arguments plus pseudo-parameters) one
/// kernel's counts may mention; compilation rejects more.
inline constexpr std::size_t kMaxFeatureSlots = 32;
/// Length of staticFeatureVector().
inline constexpr std::size_t kNumStaticFeatures = 15;

/// A kernel's features, compiled once for per-launch evaluation.
///
/// Compile once: construction (through extractFeatures or from a
/// KernelCounts) numbers every parameter the counts mention in one sorted
/// slot table, flattens the ten counts and the two derived sums into term
/// arrays (coefficient plus slot indices), and evaluates the static
/// feature vector. The derived sums are built with WorkExpr's own
/// operators first, so their merged coefficients and pruning are exactly
/// those of `floatOps + intOps + specialOps` and
/// `(globalLoads + globalStores) * 4`.
///
/// Evaluate once per launch: evaluate() resolves each slot once and sums
/// every flat polynomial. The payload is immutable and shared, so copying
/// a KernelFeatures (and with it a runtime::Task) bumps one refcount.
///
/// Bit identity: each flat polynomial keeps WorkExpr::eval's term order
/// (the canonical map order) and its multiplication order (coefficient
/// first, then each variable of the sorted monomial), and each slot takes
/// the value eval() would look up. So every evaluated count equals
/// `WorkExpr::eval` of the same polynomial bit for bit.
class KernelFeatures {
public:
  /// A kernel that does nothing (every count zero).
  KernelFeatures();
  /// Compiles `counts`. Throws tp::Error when the counts mention more than
  /// kMaxFeatureSlots distinct parameters.
  explicit KernelFeatures(KernelCounts counts);

  const KernelCounts& counts() const noexcept;
  /// The static half of the model's feature vector (see
  /// staticFeatureNames()), evaluated at compile time.
  const std::array<double, kNumStaticFeatures>& staticVector() const noexcept;

  /// Every count under one launch. Each parameter resolves once: the
  /// get_global_size pseudo-parameter to `globalSize`, any other to its
  /// entry in `sizeBindings`, and an unbound one to 16.0 — exactly what
  /// WorkExpr::eval sees for `sizeBindings` plus the global size.
  /// Allocates nothing.
  LaunchCounts evaluate(const std::map<std::string, double>& sizeBindings,
                        std::size_t globalSize) const;

  /// Owners of the shared compiled payload, this object included.
  long shareCount() const noexcept { return compiled_.use_count(); }

private:
  struct Compiled;
  std::shared_ptr<const Compiled> compiled_;
};

/// Weight applied to the body of an `if` without an `else` (bounds-check
/// guards almost always pass).
inline constexpr double kThenOnlyWeight = 0.9;
/// Weight applied to each arm of an if/else.
inline constexpr double kBalancedBranchWeight = 0.5;
/// Name of the pseudo-parameter standing in for unknown loop trip counts.
inline constexpr const char* kUnknownTripParam = "__unknown_loop";
/// Pseudo-parameter bound to get_global_size(0) at launch.
inline constexpr const char* kGlobalSizeParam = "__global_size_0";

/// Extract and compile the features of a verified kernel.
KernelFeatures extractFeatures(const ir::KernelDecl& kernel);

/// Names/values of the static feature vector used by the ML model. The
/// symbolic counts are evaluated with every parameter at 16.0 so the
/// vector characterizes code structure independent of problem size.
std::vector<std::string> staticFeatureNames();
std::vector<double> staticFeatureVector(const KernelFeatures& f);

}  // namespace tp::features
