#pragma once

// The 23-program evaluation suite (paper §3: programs drawn from OpenCL
// vendor samples, Rodinia [2], SHOC [3] and PolyBench-GPU [4] families).
//
// Every benchmark provides:
//   - the OpenCL-C-subset kernel source, compiled once through the full
//     pipeline (parse → verify → static features → access classification);
//   - a factory that, for a given problem size, produces a ready-to-run
//     Task over deterministic, lazily generated inputs (suite_util.hpp:
//     no element memory exists until something reads the data, so
//     TimeOnly runs never allocate it) plus a verifier;
//   - a ladder of problem sizes used by the training sweep (chosen to
//     straddle the CPU/GPU crossover on the simulated machines).
//
// Instances are single-use: execute the Task once (Compute mode), then call
// verify(); it regenerates the creation-time inputs (Buffer::pristine) for
// the reference computation, so kernels that update an input in place are
// checked against the values they started from.

#include <functional>
#include <string>
#include <vector>

#include "runtime/compiler.hpp"
#include "runtime/task.hpp"

namespace tp::suite {

struct BenchmarkInstance {
  runtime::Task task;
  /// Checks device results against a scalar host reference; on failure
  /// returns false and describes the mismatch.
  std::function<bool(std::string* error)> verify;
};

struct Benchmark {
  std::string name;
  std::string family;  ///< "vendor", "rodinia", "shoc", "polybench"
  runtime::CompiledKernel compiled;
  std::vector<std::size_t> sizes;  ///< problem-size ladder
  std::function<BenchmarkInstance(std::size_t n)> make;

  const std::string& source() const { return compiled.source(); }
};

/// All 23 benchmarks, in suite order. Compiled once, lazily, thread-safe.
const std::vector<Benchmark>& allBenchmarks();

/// Lookup by name; throws tp::Error if absent.
const Benchmark& benchmarkByName(const std::string& name);

// Per-family factories (one translation unit each).
std::vector<Benchmark> makeVendorBenchmarks();
std::vector<Benchmark> makeShocBenchmarks();
std::vector<Benchmark> makeRodiniaBenchmarks();
std::vector<Benchmark> makePolybenchBenchmarks();

}  // namespace tp::suite
