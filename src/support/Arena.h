//===- support/Arena.h - Bump-pointer allocation arena ---------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple bump-pointer arena used for AST and IR node allocation. Objects
/// allocated from an arena are never individually freed; the whole arena is
/// released at once when it is destroyed, so no destructor ever runs:
/// create() only accepts trivially destructible types, and a node that
/// needs a list holds a copyArray() span instead of a std::vector.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_SUPPORT_ARENA_H
#define GCSAFE_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace gcsafe {

/// Bump-pointer allocator. Not thread-safe; one arena per compilation.
class Arena {
public:
  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;
  ~Arena();

  /// Allocates \p Size bytes aligned to \p Align. Never returns null.
  void *allocate(size_t Size, size_t Align);

  /// Allocates and constructs a \p T with the given constructor arguments.
  template <typename T, typename... Args> T *create(Args &&...CtorArgs) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed");
    void *Mem = allocate(sizeof(T), alignof(T));
    return new (Mem) T(std::forward<Args>(CtorArgs)...);
  }

  /// Copies \p Items into the arena; the span lives as long as the arena.
  template <typename T> std::span<T *const> copyArray(
      const std::vector<T *> &Items) {
    if (Items.empty())
      return {};
    auto *Mem = static_cast<T **>(
        allocate(sizeof(T *) * Items.size(), alignof(T *)));
    std::memcpy(Mem, Items.data(), sizeof(T *) * Items.size());
    return {Mem, Items.size()};
  }

  /// Copies \p Text into the arena and returns a stable string_view.
  std::string_view copyString(std::string_view Text);

  /// Total bytes handed out so far (excluding slab slack).
  size_t bytesAllocated() const { return BytesAllocated; }

private:
  void newSlab(size_t MinSize);

  static constexpr size_t SlabSize = 64 * 1024;

  std::vector<char *> Slabs;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t BytesAllocated = 0;
};

} // namespace gcsafe

#endif // GCSAFE_SUPPORT_ARENA_H
