// Allocation-free hot-path queue primitives. The modeled structures they
// back are tiny and bounded (per-tile event histories, per-line queues of
// parked directory requests rarely more than two deep, sequence windows
// spanning a handful of in-flight messages), so fixed or small-buffer storage is faithful to
// the hardware as well as fast: no per-element node allocation, no
// rebalancing, contiguous memory. See docs/performance.md for the capacity
// arguments at each use site.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace tcmp {

/// Fixed-capacity FIFO ring. The capacity is set once (construction or
/// reset_capacity) and never grows: pushing into a full ring is a programming
/// error (the caller checks or evicts first). Requires default-constructible
/// T.
template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;
  explicit RingBuffer(std::size_t capacity) { reset_capacity(capacity); }
  RingBuffer(const RingBuffer&) = default;
  RingBuffer& operator=(const RingBuffer&) = default;
  // Moved-from rings read as empty with zero capacity (the default move
  // would copy the scalar cursors over a hollowed-out slot vector).
  RingBuffer(RingBuffer&& other) noexcept { *this = std::move(other); }
  RingBuffer& operator=(RingBuffer&& other) noexcept {
    if (this != &other) {
      slots_ = std::move(other.slots_);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
      other.slots_.clear();
    }
    return *this;
  }

  /// (Re)size the ring; only valid while empty.
  void reset_capacity(std::size_t capacity) {
    TCMP_CHECK(size_ == 0 && capacity >= 1);
    slots_.assign(capacity, T{});
    head_ = 0;
  }

  void push_back(T v) {
    TCMP_DCHECK_MSG(size_ < slots_.size(), "RingBuffer overflow");
    std::size_t idx = head_ + size_;
    if (idx >= slots_.size()) idx -= slots_.size();
    slots_[idx] = std::move(v);
    ++size_;
  }

  [[nodiscard]] T& front() {
    TCMP_DCHECK(size_ > 0);
    return slots_[head_];
  }
  [[nodiscard]] const T& front() const {
    TCMP_DCHECK(size_ > 0);
    return slots_[head_];
  }

  void pop_front() {
    TCMP_DCHECK(size_ > 0);
    slots_[head_] = T{};  // drop payloads eagerly (moved-from hygiene)
    if (++head_ == slots_.size()) head_ = 0;
    --size_;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == slots_.size(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Exact-image checkpoint serialization (common/snapshot.hpp).
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.field(slots_);
    ar.field(head_);
    ar.field(size_);
  }

 private:
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Small-buffer FIFO: the first kInline elements live inside the object (no
/// allocation at all for the common case), spilling to a heap ring only when
/// a queue transiently grows past that. Value-semantic (copy/move work
/// member-wise because storage is addressed through data(), never through a
/// cached pointer). Requires default-constructible T.
template <typename T, std::size_t kInline = 2>
class SmallQueue {
 public:
  SmallQueue() = default;
  SmallQueue(const SmallQueue&) = default;
  SmallQueue& operator=(const SmallQueue&) = default;
  // Moved-from queues must read as empty (a moved-from queue may be pushed
  // to again); the default move would copy the scalar cursors and leave the
  // source claiming its old size.
  SmallQueue(SmallQueue&& other) noexcept { *this = std::move(other); }
  SmallQueue& operator=(SmallQueue&& other) noexcept {
    if (this != &other) {
      inline_ = std::move(other.inline_);
      heap_ = std::move(other.heap_);
      cap_ = std::exchange(other.cap_, kInline);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
      other.heap_.clear();
    }
    return *this;
  }

  void push_back(T v) {
    if (size_ == cap_) grow();
    std::size_t idx = head_ + size_;
    if (idx >= cap_) idx -= cap_;
    data()[idx] = std::move(v);
    ++size_;
  }

  [[nodiscard]] T& front() {
    TCMP_DCHECK(size_ > 0);
    return data()[head_];
  }
  [[nodiscard]] const T& front() const {
    TCMP_DCHECK(size_ > 0);
    return data()[head_];
  }
  [[nodiscard]] T& back() {
    TCMP_DCHECK(size_ > 0);
    std::size_t idx = head_ + size_ - 1;
    if (idx >= cap_) idx -= cap_;
    return data()[idx];
  }
  [[nodiscard]] const T& back() const {
    return const_cast<SmallQueue*>(this)->back();
  }

  void pop_front() {
    TCMP_DCHECK(size_ > 0);
    data()[head_] = T{};  // drop payloads eagerly (moved-from hygiene)
    if (++head_ == cap_) head_ = 0;
    --size_;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] bool spilled() const { return !heap_.empty(); }

  /// Exact-image checkpoint serialization (common/snapshot.hpp): inline and
  /// heap storage both travel, so a spilled queue restores spilled.
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.field(inline_);
    ar.field(heap_);
    ar.field(cap_);
    ar.field(head_);
    ar.field(size_);
  }

 private:
  [[nodiscard]] T* data() {
    return heap_.empty() ? inline_.data() : heap_.data();
  }
  [[nodiscard]] const T* data() const {
    return heap_.empty() ? inline_.data() : heap_.data();
  }

  void grow() {
    std::vector<T> next(cap_ * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      std::size_t idx = head_ + i;
      if (idx >= cap_) idx -= cap_;
      next[i] = std::move(data()[idx]);
    }
    heap_ = std::move(next);
    cap_ *= 2;
    head_ = 0;
  }

  std::array<T, kInline> inline_{};
  std::vector<T> heap_;  ///< empty until the queue first exceeds kInline
  std::size_t cap_ = kInline;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Flat sequence-indexed reorder window: a power-of-two slot array addressed
/// by `seq & mask`, replacing a std::map keyed by sequence number. The
/// caller owns the "next expected" cursor (`base`); the window holds items
/// with seq in (base, base + capacity), doubling (and re-placing the held
/// items by their stored seq) on the rare arrival beyond that span. Because
/// `base` only advances and every held seq was within span when inserted,
/// distinct held seqs always map to distinct slots. Storage is lazy: an
/// empty window owns no heap memory.
template <typename T>
class SeqWindow {
 public:
  SeqWindow() = default;
  SeqWindow(const SeqWindow&) = default;
  SeqWindow& operator=(const SeqWindow&) = default;
  // Same moved-from-reads-as-empty contract as SmallQueue: the default move
  // would leave the source's count_ stale over a hollowed-out slot vector.
  SeqWindow(SeqWindow&& other) noexcept { *this = std::move(other); }
  SeqWindow& operator=(SeqWindow&& other) noexcept {
    if (this != &other) {
      slots_ = std::move(other.slots_);
      count_ = std::exchange(other.count_, 0);
      other.slots_.clear();
    }
    return *this;
  }

  /// Park `item` at `seq` (must be > base, the caller's next-expected seq).
  void insert(std::uint32_t base, std::uint32_t seq, T item) {
    TCMP_DCHECK(seq > base);
    if (slots_.empty()) slots_.resize(kInitialSlots);
    while (seq - base >= slots_.size()) grow();
    Slot& s = slots_[index(seq)];
    TCMP_CHECK_MSG(!s.occupied, "duplicate sequence number in reorder window");
    s.seq = seq;
    s.item = std::move(item);
    s.occupied = true;
    ++count_;
  }

  /// Remove and return the item parked at `seq`, if present.
  [[nodiscard]] std::optional<T> take(std::uint32_t seq) {
    if (count_ == 0) return std::nullopt;
    Slot& s = slots_[index(seq)];
    if (!s.occupied || s.seq != seq) return std::nullopt;
    s.occupied = false;
    --count_;
    T item = std::move(s.item);
    s.item = T{};
    return item;
  }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Exact-image checkpoint serialization (common/snapshot.hpp).
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.field(slots_);
    ar.field(count_);
  }

 private:
  static constexpr std::size_t kInitialSlots = 4;  // power of two

  struct Slot {
    T item{};
    std::uint32_t seq = 0;
    bool occupied = false;

    template <typename Ar>
    void snapshot_io(Ar& ar) {
      ar.field(item);
      ar.field(seq);
      ar.field(occupied);
    }
  };

  [[nodiscard]] std::size_t index(std::uint32_t seq) const {
    return seq & (slots_.size() - 1);
  }

  void grow() {
    std::vector<Slot> next(slots_.size() * 2);
    for (Slot& s : slots_) {
      if (!s.occupied) continue;
      Slot& d = next[s.seq & (next.size() - 1)];
      d = std::move(s);
    }
    slots_ = std::move(next);
  }

  std::vector<Slot> slots_;  ///< power-of-two length (empty until first use)
  std::size_t count_ = 0;
};

}  // namespace tcmp
