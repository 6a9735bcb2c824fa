// A per-run bump allocator for message payloads.
//
// Every send used to heap-allocate a shared_ptr control block plus the
// payload itself and refcount it through the event queue.  Payloads are
// immutable after construction and never outlive their run, so a run-scoped
// arena fits exactly: allocation is a pointer bump into a chunk, ownership
// is the arena's alone (everyone else holds `const T*`), and the whole
// population dies with the Simulator.  A run has exactly one: processes
// build in it through Process::make_msg, and components that are not
// processes (the quorum engine) through their host
// (QuorumHost::quorum_arena).  Non-trivially-destructible payloads
// register themselves on an intrusive list (its nodes live in the arena
// too) and are destroyed in reverse construction order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace linbound {

class PayloadArena {
 public:
  PayloadArena() = default;
  PayloadArena(const PayloadArena&) = delete;
  PayloadArena& operator=(const PayloadArena&) = delete;
  ~PayloadArena() { clear(); }

  /// Construct a T inside the arena.  The pointer stays valid for the
  /// arena's lifetime; the arena destroys the object (if it needs it).
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    void* mem = allocate(sizeof(T), alignof(T));
    T* obj = ::new (mem) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      void* node_mem = allocate(sizeof(DtorNode), alignof(DtorNode));
      auto* node = ::new (node_mem) DtorNode{
          [](void* p) { static_cast<T*>(p)->~T(); }, obj, dtors_};
      dtors_ = node;
    }
    ++objects_;
    return obj;
  }

  std::size_t objects() const { return objects_; }
  std::size_t bytes_reserved() const {
    return (chunks_.size() + spare_.size()) * kChunkSize;
  }
  /// Bytes of chunk space consumed so far (whole chunks for all but the
  /// tail; oversized chunks undercount slightly) -- what reserve_bytes
  /// should have covered for an allocation-free run.
  std::size_t bytes_used() const {
    return chunks_.empty() ? 0 : (chunks_.size() - 1) * kChunkSize + used_;
  }

  /// Pre-allocate enough chunks for `bytes` of payloads (rounded up to
  /// whole chunks) into a spare pool the bump allocator draws from.  The
  /// arena grows monotonically for a run's lifetime, so covering the whole
  /// run's payload volume here is what makes the steady-state send path
  /// allocation-free -- a warm-up alone cannot, since fresh chunks would
  /// still be needed mid-run.  Never shrinks; oversized one-off requests
  /// (> 64 KiB) still allocate their dedicated chunk directly.
  void reserve_bytes(std::size_t bytes) {
    const std::size_t want = (bytes + kChunkSize - 1) / kChunkSize;
    // The chunk-pointer vectors grow by doubling like any vector; size them
    // here too, or their reallocations would be the hot path's last
    // remaining heap activity.
    if (spare_.capacity() < want) spare_.reserve(want);
    if (chunks_.capacity() < want) chunks_.reserve(want);
    while (spare_.size() < want) {
      spare_.emplace_back(new char[kChunkSize]);
    }
  }

  /// Destroy everything and release the chunks (also run by the dtor).
  void clear() {
    for (DtorNode* n = dtors_; n != nullptr; n = n->next) n->destroy(n->obj);
    dtors_ = nullptr;
    chunks_.clear();
    spare_.clear();
    used_ = 0;
    objects_ = 0;
  }

 private:
  static constexpr std::size_t kChunkSize = 64 * 1024;

  struct DtorNode {
    void (*destroy)(void*);
    void* obj;
    DtorNode* next;
  };

  void* allocate(std::size_t size, std::size_t align) {
    // Oversized requests get a dedicated chunk; the common case bumps the
    // tail chunk's cursor.
    if (size + align > kChunkSize) {
      chunks_.emplace_back(new char[size + align]);
      used_ = kChunkSize;  // force a fresh chunk for the next small request
      return align_ptr(chunks_.back().get(), align);
    }
    if (chunks_.empty() || used_ + size + align > kChunkSize) {
      if (!spare_.empty()) {
        chunks_.push_back(std::move(spare_.back()));
        spare_.pop_back();
      } else {
        chunks_.emplace_back(new char[kChunkSize]);
      }
      used_ = 0;
    }
    char* base = chunks_.back().get() + used_;
    char* aligned = align_ptr(base, align);
    used_ = static_cast<std::size_t>(aligned - chunks_.back().get()) + size;
    return aligned;
  }

  static char* align_ptr(char* p, std::size_t align) {
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t aligned = (addr + align - 1) & ~(align - 1);
    return p + (aligned - addr);
  }

  std::vector<std::unique_ptr<char[]>> chunks_;
  std::vector<std::unique_ptr<char[]>> spare_;  ///< pre-reserved, unused chunks
  std::size_t used_ = 0;  ///< bytes consumed in the tail chunk
  std::size_t objects_ = 0;
  DtorNode* dtors_ = nullptr;
};

}  // namespace linbound
