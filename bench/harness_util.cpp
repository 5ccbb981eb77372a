#include "harness_util.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/str.hpp"
#include "sim/machine.hpp"
#include "suite/benchmark.hpp"

namespace tp::bench {

runtime::FeatureDatabase fullSweep(const runtime::PartitioningSpace& space,
                                   std::size_t sizesPerProgram) {
  auto db = runtime::FeatureDatabase::withDefaultSchema(space.size());
  const auto machines = sim::evaluationMachines();
  for (const auto& bench : suite::allBenchmarks()) {
    const std::size_t count = sizesPerProgram == 0
                                  ? bench.sizes.size()
                                  : std::min(sizesPerProgram,
                                             bench.sizes.size());
    for (std::size_t s = 0; s < count; ++s) {
      const std::size_t n = bench.sizes[s];
      // One instance serves both machines: tasks are machine-independent.
      auto inst = bench.make(n);
      const std::string sizeLabel = "n=" + std::to_string(n);
      for (const auto& machine : machines) {
        db.add(runtime::measureLaunch(inst.task, machine, space, sizeLabel));
      }
    }
  }
  return db;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::addRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::print() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      if (c < row.size()) widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto printRow = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      std::printf("%-*s  ", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  printRow(headers_);
  std::size_t total = headers_.size() * 2;
  for (const auto w : widths) total += w;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) printRow(row);
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

namespace {

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

void JsonObject::set(const std::string& key, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Infinity/NaN; null keeps the document parseable.
    fields_.emplace_back(key, "null");
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  fields_.emplace_back(key, buf);
}

void JsonObject::setInt(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
}

void JsonObject::set(const std::string& key, const std::string& value) {
  // Appended, not `"lit" + std::string&&`: that form trips a GCC 12
  // -Wrestrict false positive in Release builds.
  std::string quoted = "\"";
  quoted.append(jsonEscape(value)).append("\"");
  fields_.emplace_back(key, std::move(quoted));
}

void JsonObject::set(const std::string& key, const char* value) {
  set(key, std::string(value));
}

std::string JsonObject::str() const {
  std::string out = "{\n";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out += "  \"" + jsonEscape(fields_[i].first) + "\": " + fields_[i].second;
    if (i + 1 < fields_.size()) out += ",";
    out += "\n";
  }
  out += "}\n";
  return out;
}

void writeJson(const std::string& path, const JsonObject& obj) {
  std::ofstream os(path);
  if (!os) throw IoError("cannot open for writing: " + path);
  os << obj.str();
  if (!os) throw IoError("write failed: " + path);
}

ServeWorkload buildServeWorkload(
    std::size_t programs, const std::vector<sim::MachineConfig>& machines,
    const runtime::PartitioningSpace& space) {
  ServeWorkload workload{
      {}, runtime::FeatureDatabase::withDefaultSchema(space.size())};
  const auto& all = suite::allBenchmarks();
  for (std::size_t b = 0; b < programs && b < all.size(); ++b) {
    const auto& bench = all[b];
    for (std::size_t s = 0; s < std::min<std::size_t>(2, bench.sizes.size());
         ++s) {
      auto inst = bench.make(bench.sizes[s]);
      for (const auto& machine : machines) {
        workload.db.add(runtime::measureLaunch(
            inst.task, machine, space,
            "n=" + std::to_string(bench.sizes[s])));
      }
      workload.tasks.push_back(std::move(inst.task));
    }
  }
  return workload;
}

double serveWave(serve::PartitionService& service,
                 const std::vector<runtime::Task>& tasks,
                 const std::vector<sim::MachineConfig>& machines,
                 std::size_t threads, std::size_t total, std::uint64_t seed) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  std::vector<std::thread> clients;
  const std::size_t each = std::max<std::size_t>(1, total / threads);
  for (std::size_t c = 0; c < threads; ++c) {
    clients.emplace_back([&, c] {
      common::Rng rng(seed + c);
      for (std::size_t r = 0; r < each; ++r) {
        serve::LaunchRequest request;
        request.machine = machines[rng.below(machines.size())].name;
        request.task = tasks[rng.below(tasks.size())];
        (void)service.call(std::move(request));
      }
    });
  }
  for (auto& c : clients) c.join();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace tp::bench
