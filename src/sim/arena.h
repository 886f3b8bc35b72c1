// Reusable-storage primitives for the steady-state request path.
//
// The controllers' fast path (client request -> controller -> disk and back)
// must not heap-allocate once warmed up: every structure it needs per request
// is drawn from one of these pools and returned when the request completes.
// The pools never shrink -- capacity reached during warm-up is capacity kept
// -- which is exactly the behaviour a real array controller's preallocated
// request contexts would have.
//
// Contract for all pooled storage: a borrower must not retain a pointer/span
// past the completion callback that releases it (see DESIGN.md, "Arena reuse
// contract").

#ifndef AFRAID_SIM_ARENA_H_
#define AFRAID_SIM_ARENA_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.h"

namespace afraid {

// A borrowed view over pooled contiguous storage (e.g. a request's Split
// segments). Plain pointer+count so it fits in small callback captures.
template <typename T>
struct Span {
  const T* data = nullptr;
  int32_t count = 0;

  const T* begin() const { return data; }
  const T* end() const { return data + count; }
  const T& operator[](int32_t i) const { return data[i]; }
  int32_t size() const { return count; }
  bool empty() const { return count == 0; }
};

// FIFO queue over a power-of-two ring buffer; replaces std::deque on the
// request path (libstdc++'s deque allocates even when default-constructed
// empty, and node churn defeats the allocation-free goal). T must be
// default-constructible and movable.
template <typename T>
class RingQueue {
 public:
  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }

  T& front() {
    assert(count_ > 0);
    return buf_[head_];
  }

  void push_back(T v) {
    if (count_ == buf_.size()) {
      Grow();
    }
    buf_[(head_ + count_) & (buf_.size() - 1)] = std::move(v);
    ++count_;
  }

  void pop_front() {
    assert(count_ > 0);
    // Drop held resources (callback captures) eagerly. A trivially
    // destructible element (a pointer, an index) holds none, so its slot is
    // left as is rather than overwritten by a value-initialised temporary.
    if constexpr (!std::is_trivially_destructible_v<T>) {
      buf_[head_] = T();
    }
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }

 private:
  void Grow() {
    const size_t new_cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<T> next(new_cap);
    for (size_t i = 0; i < count_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;  // Capacity is always a power of two.
  size_t head_ = 0;
  size_t count_ = 0;
};

// Size-bucketed free-list backing for node-based containers (the host
// driver's sweep queue). Nodes are carved from slabs and recycled by size
// class, so a container that churns nodes at a bounded population allocates
// only during warm-up.
class NodePool {
 public:
  NodePool() = default;
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  void* Allocate(size_t bytes) {
    const size_t bucket = BucketOf(bytes);
    if (bucket >= free_.size()) {
      free_.resize(bucket + 1);
    }
    auto& list = free_[bucket];
    if (!list.empty()) {
      void* p = list.back();
      list.pop_back();
      return p;
    }
    const size_t need = bucket * kAlign;
    if (bump_left_ < need) {
      const size_t slab = need > kSlabBytes ? need : kSlabBytes;
      slabs_.push_back(std::make_unique<unsigned char[]>(slab));
      bump_ = slabs_.back().get();
      bump_left_ = slab;
    }
    void* p = bump_;
    bump_ += need;
    bump_left_ -= need;
    return p;
  }

  void Deallocate(void* p, size_t bytes) {
    free_[BucketOf(bytes)].push_back(p);
  }

 private:
  static constexpr size_t kAlign = alignof(std::max_align_t);
  static constexpr size_t kSlabBytes = 16 * 1024;

  static size_t BucketOf(size_t bytes) { return (bytes + kAlign - 1) / kAlign; }

  std::vector<std::vector<void*>> free_;  // Indexed by size bucket.
  std::vector<std::unique_ptr<unsigned char[]>> slabs_;
  unsigned char* bump_ = nullptr;
  size_t bump_left_ = 0;
};

// Minimal std allocator over a NodePool, for node-based containers (they
// allocate one node at a time).
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  explicit PoolAllocator(NodePool* pool) : pool_(pool) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& o) : pool_(o.pool_) {}  // NOLINT

  T* allocate(size_t n) { return static_cast<T*>(pool_->Allocate(n * sizeof(T))); }
  void deallocate(T* p, size_t n) { pool_->Deallocate(p, n * sizeof(T)); }

  bool operator==(const PoolAllocator& o) const { return pool_ == o.pool_; }
  bool operator!=(const PoolAllocator& o) const { return pool_ != o.pool_; }

  NodePool* pool_;
};

// Free list of std::vector<T> scratch buffers. Acquire() hands out a cleared
// vector whose capacity survives from previous uses; Release() returns it.
template <typename T>
class VecPool {
 public:
  std::vector<T>* Acquire() {
    if (free_.empty()) {
      storage_.push_back(std::make_unique<std::vector<T>>());
      free_.push_back(storage_.back().get());
    }
    std::vector<T>* v = free_.back();
    free_.pop_back();
    v->clear();
    return v;
  }

  void Release(std::vector<T>* v) { free_.push_back(v); }

 private:
  std::vector<std::unique_ptr<std::vector<T>>> storage_;
  std::vector<std::vector<T>*> free_;
};

// Pooled fan-in block: one completion callback runs after `count` Dec()s,
// with failure latching, replacing the per-request shared_ptr<Join>. Blocks
// live in a stable-address pool and are recycled once their callback has
// run, so a warmed-up controller's joins never touch the heap. Sized for the
// controllers' fattest finish continuation (the client front end's: `this`,
// the request's RequestDone and its segment vector).
using JoinDone = SmallCallback<void(bool), 128>;

class JoinPool;

struct JoinBlock {
  int32_t remaining = 0;
  bool failed = false;
  JoinDone done;
  JoinPool* pool = nullptr;

  inline void Dec(bool ok);
};

class JoinPool {
 public:
  // Draws a block that runs `done` after `count` Dec()s, built in the block
  // and required to fit inline (a box would allocate per compound step).
  template <typename F>
  JoinBlock* Make(int32_t count, F&& done) {
    static_assert(JoinDone::kFitsInline<std::decay_t<F>>,
                  "join continuation outgrows JoinDone's inline buffer");
    assert(count > 0);
    if (free_.empty()) {
      blocks_.push_back(std::make_unique<JoinBlock>());
      blocks_.back()->pool = this;
      free_.push_back(blocks_.back().get());
    }
    JoinBlock* j = free_.back();
    free_.pop_back();
    j->remaining = count;
    j->failed = false;
    j->done.Emplace(std::forward<F>(done));
    return j;
  }

  void Release(JoinBlock* j) { free_.push_back(j); }

 private:
  std::vector<std::unique_ptr<JoinBlock>> blocks_;
  std::vector<JoinBlock*> free_;
};

// The callback runs in the block, and the block returns to the pool only
// after it returns: the callback may draw new joins from the pool (never
// this block) and complete them synchronously.
inline void JoinBlock::Dec(bool ok) {
  if (!ok) {
    failed = true;
  }
  if (--remaining == 0) {
    done(!failed);
    done.Reset();
    pool->Release(this);
  }
}

}  // namespace afraid

#endif  // AFRAID_SIM_ARENA_H_
