// Growable circular FIFO that recycles its slots (free-list semantics):
// after warm-up, push/pop never allocate, unlike std::deque whose block
// churn shows up in the per-packet profile of the bottleneck queue.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace libra {

template <typename T>
class FifoRing {
 public:
  explicit FifoRing(std::size_t initial_capacity = 16) {
    std::size_t cap = 1;
    while (cap < initial_capacity) cap <<= 1;
    slots_.resize(cap);
  }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }
  /// Most recently pushed element; the ring must be non-empty.
  const T& back() const { return slots_[(head_ + size_ - 1) & (slots_.size() - 1)]; }

  void pop_front() {
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  void grow() {
    std::vector<T> bigger(slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace libra
