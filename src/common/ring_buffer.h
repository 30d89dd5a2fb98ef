// RingBuffer: a FIFO queue over one power-of-two array that keeps its
// capacity. Steady-state push/pop never touches the allocator, which is
// what a per-step queue (a host's work items, a machine's task queue)
// needs: std::deque frees and reallocates a block every few hundred
// elements, std::list allocates per node.
//
// Slots are recycled, not destroyed: pop_front() only advances the head,
// so a popped element keeps its members (and their capacity) until the
// slot is reused. PushSlot() hands that recycled slot back for the caller
// to reset in place, which is how vectors inside an element keep their
// buffers from one use to the next. Callers that must release what an
// element holds move it out before popping (a moved-from std::function is
// empty).
#ifndef MITOS_COMMON_RING_BUFFER_H_
#define MITOS_COMMON_RING_BUFFER_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace mitos {

template <typename T>
class RingBuffer {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() {
    MITOS_CHECK(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    MITOS_CHECK(size_ > 0);
    return slots_[head_];
  }
  // The i-th element from the front.
  T& operator[](size_t i) { return slots_[(head_ + i) & mask()]; }
  const T& operator[](size_t i) const { return slots_[(head_ + i) & mask()]; }

  // Appends a slot at the back and returns it, holding whatever it last
  // held (default-constructed on first use); the caller resets it.
  T& PushSlot() {
    if (size_ == slots_.size()) Grow();
    T& slot = slots_[(head_ + size_) & mask()];
    ++size_;
    return slot;
  }
  void push_back(T value) { PushSlot() = std::move(value); }

  void pop_front() {
    MITOS_CHECK(size_ > 0);
    head_ = (head_ + 1) & mask();
    --size_;
  }

  // O(1): exchanges the storage, so both sides keep a capacity.
  void swap(RingBuffer& other) noexcept {
    slots_.swap(other.slots_);
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
  }

 private:
  size_t mask() const { return slots_.size() - 1; }

  // Doubles the array, moving the elements to the front in order.
  void Grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : 2 * slots_.size());
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & mask()]);
    }
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace mitos

#endif  // MITOS_COMMON_RING_BUFFER_H_
