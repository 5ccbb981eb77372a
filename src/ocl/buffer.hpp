#pragma once

// Host-side buffer storage for the virtual OpenCL runtime (vcl::).
//
// Buffers always live in host memory; "transfers" to a device are simulated
// for timing, and in Compute mode each device receives a bounds-restricted
// view (view.hpp) of exactly the slice the partitioning assigned to it —
// so a kernel that touches memory outside its assigned slice fails loudly
// instead of silently reading another device's data.
//
// Storage appears on first data access (data(), at(), fill(), zero(),
// toVector()): it is zero-filled and then written by the buffer's generator,
// if it has one, exactly once even when threads race to the first access.
// kind(), size() and bytes() never allocate, so TimeOnly execution, which
// reads only sizes, never touches element memory. pristine() re-runs the
// generator into a fresh vector: the creation-time contents, whatever a
// kernel has written since.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/striped.hpp"

namespace tp::vcl {

enum class ElemKind { F32, I32, U32 };

inline const char* elemKindName(ElemKind k) {
  switch (k) {
    case ElemKind::F32: return "f32";
    case ElemKind::I32: return "i32";
    case ElemKind::U32: return "u32";
  }
  return "?";
}

/// The element kind holding T (float, int or unsigned).
template <typename T>
constexpr ElemKind elemKindOf() {
  static_assert(std::is_same_v<T, float> || std::is_same_v<T, int> ||
                    std::is_same_v<T, unsigned>,
                "vcl buffers hold float, int or unsigned elements");
  if constexpr (std::is_same_v<T, float>) return ElemKind::F32;
  if constexpr (std::is_same_v<T, int>) return ElemKind::I32;
  return ElemKind::U32;
}

/// Cache-line aligned: see the static_assert below the class.
class alignas(common::kCacheLineBytes) Buffer {
public:
  /// Writes the creation-time contents into zero-filled storage of size()
  /// elements of the buffer's kind. Must be deterministic: it runs once to
  /// materialize the buffer and again for every pristine() copy.
  using Generator = std::function<void(void* storage)>;

  Buffer(ElemKind kind, std::size_t elements, Generator generator = {})
      : kind_(kind), elements_(elements), generator_(std::move(generator)) {}

  ElemKind kind() const noexcept { return kind_; }
  std::size_t size() const noexcept { return elements_; }
  std::size_t bytes() const noexcept { return elements_ * 4; }

  /// Whether the storage exists yet (any data access creates it).
  bool materialized() const noexcept
      TP_LOCK_FREE_AUDITED(
          "acquire load of a flag released inside std::call_once; TSan: "
          "test_ocl Buffer.RacingFirstAccessMaterializesOnce") {
    return materialized_.load(std::memory_order_acquire);
  }

  template <typename T>
  T* data() {
    checkType<T>();
    return reinterpret_cast<T*>(storage());
  }

  template <typename T>
  const T* data() const {
    checkType<T>();
    return reinterpret_cast<const T*>(storage());
  }

  template <typename T>
  T& at(std::size_t i) {
    TP_ASSERT_MSG(i < elements_, "buffer index " << i << " >= " << elements_);
    return data<T>()[i];
  }

  template <typename T>
  const T& at(std::size_t i) const {
    TP_ASSERT_MSG(i < elements_, "buffer index " << i << " >= " << elements_);
    return data<T>()[i];
  }

  template <typename T>
  void fill(const std::vector<T>& values) {
    TP_REQUIRE(values.size() == elements_,
               "Buffer::fill size mismatch: " << values.size() << " vs "
                                              << elements_);
    std::copy(values.begin(), values.end(), data<T>());
  }

  template <typename T>
  std::vector<T> toVector() const {
    return std::vector<T>(data<T>(), data<T>() + elements_);
  }

  /// The contents the buffer was created with, regenerated; neither reads
  /// nor materializes the storage.
  template <typename T>
  std::vector<T> pristine() const {
    checkType<T>();
    std::vector<T> values(elements_);
    if (generator_) generator_(values.data());
    return values;
  }

  void zero() {
    std::byte* s = storage();
    std::fill(s, s + bytes(), std::byte{0});
  }

private:
  template <typename T>
  void checkType() const {
    TP_ASSERT_MSG(elemKindOf<T>() == kind_,
                  "buffer type mismatch: buffer holds "
                      << elemKindName(kind_));
  }

  std::byte* storage() const
      TP_LOCK_FREE_AUDITED(
          "std::call_once publishes the storage to every caller; the flag "
          "is released inside it; TSan: test_ocl "
          "Buffer.RacingFirstAccessMaterializesOnce") {
    std::call_once(once_, [this] {
      storage_.assign(bytes(), std::byte{0});
      if (generator_) generator_(storage_.data());
      materialized_.store(true, std::memory_order_release);
    });
    return storage_.data();
  }

  ElemKind kind_;
  std::size_t elements_;
  Generator generator_;
  mutable std::once_flag once_;
  mutable std::vector<std::byte> storage_;
  mutable std::atomic<bool> materialized_{false};
};

// Tasks hold buffers through make_shared, which places the control block
// beside the object, and every Task copy writes its refcount: the fields a
// launch reads (kind, size) must not share that cache line.
static_assert(alignof(Buffer) == common::kCacheLineBytes);

}  // namespace tp::vcl
