#include "common/numbered_files.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/error.hpp"

namespace tp::common {

namespace fs = std::filesystem;

NumberedFiles::NumberedFiles(std::string dir, std::string prefix,
                             std::string suffix, std::size_t keepLast)
    : dir_(std::move(dir)),
      prefix_(std::move(prefix)),
      suffix_(std::move(suffix)),
      keepLast_(keepLast) {
  TP_REQUIRE(!dir_.empty(), "NumberedFiles: empty directory");
}

std::string NumberedFiles::path(std::uint64_t seq) const {
  std::string digits = std::to_string(seq);
  if (digits.size() < 8) digits.insert(0, 8 - digits.size(), '0');
  return (fs::path(dir_) / (prefix_ + digits + suffix_)).string();
}

std::uint64_t NumberedFiles::sequenceOf(std::string_view name) const
    noexcept {
  if (name.size() <= prefix_.size() + suffix_.size() ||
      !name.starts_with(prefix_) || !name.ends_with(suffix_)) {
    return 0;
  }
  const char* first = name.data() + prefix_.size();
  const char* last = name.data() + name.size() - suffix_.size();
  std::uint64_t seq = 0;
  const auto [end, ec] = std::from_chars(first, last, seq);
  return ec == std::errc() && end == last ? seq : 0;
}

std::vector<std::uint64_t> NumberedFiles::scan() const {
  std::vector<std::uint64_t> seqs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::uint64_t seq = sequenceOf(entry.path().filename().string());
    if (seq != 0) seqs.push_back(seq);
  }
  std::sort(seqs.rbegin(), seqs.rend());
  return seqs;
}

std::vector<std::uint64_t> NumberedFiles::sequences() const {
  MutexLock lock(mutex_);
  return scan();
}

std::uint64_t NumberedFiles::highest() const {
  const std::vector<std::uint64_t> seqs = sequences();
  return seqs.empty() ? 0 : seqs.front();
}

std::size_t NumberedFiles::count() const { return sequences().size(); }

std::uint64_t NumberedFiles::publish(std::string_view bytes) {
  return publish([bytes](std::ostream& out, std::uint64_t) {
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  });
}

std::uint64_t NumberedFiles::publish(const Writer& write) {
  MutexLock lock(mutex_);
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw IoError("NumberedFiles: cannot create " + dir_ + ": " +
                  ec.message());
  }
  const std::vector<std::uint64_t> older = scan();
  const std::uint64_t seq = (older.empty() ? 0 : older.front()) + 1;
  const std::string finalPath = path(seq);
  const std::string tmpPath = finalPath + ".tmp";
  {
    std::ofstream out(tmpPath, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("NumberedFiles: cannot open " + tmpPath);
    write(out, seq);
    out.flush();
    if (!out) throw IoError("NumberedFiles: write to " + tmpPath + " failed");
  }
  fs::rename(tmpPath, finalPath, ec);
  if (ec) {
    throw IoError("NumberedFiles: cannot publish " + finalPath + ": " +
                  ec.message());
  }
  // The new file is the newest; keep it and the keepLast - 1 below it.
  for (std::size_t i = keepLast_ == 0 ? older.size() : keepLast_ - 1;
       i < older.size(); ++i) {
    fs::remove(path(older[i]), ec);
  }
  return seq;
}

}  // namespace tp::common
