// Move-only callables with small-buffer optimisation, used for simulation
// events and the controllers' completion continuations.
//
// std::function is the wrong shape for these paths: it requires copyable
// captures (so completion continuations cannot own their state via
// unique_ptr), and captures beyond the implementation's tiny inline buffer
// cost a heap allocation per callback. SmallCallback<Sig, N> stores captures
// up to N bytes directly inside the object -- each seam sizes its alias so
// every callback it carries today fits -- and falls back to a heap box only
// for oversized captures. Move-only captures are fully supported. Event
// slots, disk-op records and join blocks Emplace each callable where it runs.

#ifndef AFRAID_SIM_CALLBACK_H_
#define AFRAID_SIM_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace afraid {

template <typename Signature, size_t InlineBytes = 48>
class SmallCallback;  // Only the R(Args...) specialisation exists.

template <typename R, typename... Args, size_t InlineBytes>
class SmallCallback<R(Args...), InlineBytes> {
 public:
  static constexpr size_t kInlineBytes = InlineBytes;

  SmallCallback() = default;

  // True when a callable of type Fn is stored inline, not in a heap box.
  template <typename Fn>
  static constexpr bool kFitsInline =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallCallback> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    Construct(std::forward<F>(f));
  }

  SmallCallback(SmallCallback&& other) noexcept { MoveFrom(other); }
  SmallCallback& operator=(SmallCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  SmallCallback(const SmallCallback&) = delete;
  SmallCallback& operator=(const SmallCallback&) = delete;

  ~SmallCallback() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  // Destroys the held callable, if any, and constructs `f` in its place (no
  // temporary, no relocation). An rvalue SmallCallback of this very type is
  // moved in, not boxed.
  template <typename F>
  void Emplace(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, SmallCallback>) {
      static_assert(!std::is_lvalue_reference_v<F>, "emplace a SmallCallback by move");
      if (this != &f) {
        Reset();
        MoveFrom(f);
      }
    } else {
      Reset();
      Construct(std::forward<F>(f));
    }
  }

  // Destroys the held callable (and its captures), leaving the object empty.
  void Reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {
        ops_->destroy(storage_);
      }
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void* self, Args&&... args);
    // Move-constructs `dst` from `src`, then destroys `src`. Null when a raw
    // byte copy of the buffer is equivalent (the common case: lambdas over
    // pointers and scalars), letting moves skip the indirect call.
    void (*relocate)(void* src, void* dst);
    // Null when destruction is a no-op.
    void (*destroy)(void* self);
  };

  template <typename Fn>
  static constexpr bool kTriviallyRelocatable =
      std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* self, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(self)))(
            std::forward<Args>(args)...);
      },
      kTriviallyRelocatable<Fn>
          ? nullptr
          : +[](void* src, void* dst) {
              Fn* from = std::launder(reinterpret_cast<Fn*>(src));
              ::new (dst) Fn(std::move(*from));
              from->~Fn();
            },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* self) { std::launder(reinterpret_cast<Fn*>(self))->~Fn(); },
  };

  // Heap-boxed callables relocate by copying the owning pointer.
  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* self, Args&&... args) -> R {
        return (**std::launder(reinterpret_cast<Fn**>(self)))(
            std::forward<Args>(args)...);
      },
      nullptr,
      [](void* self) { delete *std::launder(reinterpret_cast<Fn**>(self)); },
  };

  // Precondition: empty.
  template <typename F>
  void Construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
// The fast path deliberately copies the whole fixed-size buffer rather than
// just sizeof(Fn) bytes; the tail past the capture is indeterminate, which is
// fine for unsigned char, but GCC flags the read.
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
  void MoveFrom(SmallCallback& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      if (ops_->relocate != nullptr) {
        ops_->relocate(other.storage_, storage_);
      } else {
        std::memcpy(storage_, other.storage_, kInlineBytes);
      }
      other.ops_ = nullptr;
    }
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

// The event queue's callback: a move-only void() sized so every callback the
// simulator schedules today fits inline.
using EventCallback = SmallCallback<void(), 48>;

}  // namespace afraid

#endif  // AFRAID_SIM_CALLBACK_H_
