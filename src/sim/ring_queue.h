// Growable circular FIFO: the simulator's one queue type (network-interface
// injection queues, i-ack retry queues, and the directory's per-block and
// per-home request queues).
//
// std::deque allocates a chunk map even when empty, and allocates and frees
// chunk nodes as elements flow through a shallow queue.  RingQueue
// allocates nothing until its first push and afterwards only when the
// occupancy high-water mark grows; the storage is retained, so the steady
// state performs no allocation.  pop_front() resets the vacated slot to a
// default-constructed T so reference-holding elements (e.g. WormPtr)
// release their target immediately.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace mdw::sim {

template <class T>
class RingQueue {
public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  [[nodiscard]] T& front() {
    assert(size_ > 0);
    return buf_[head_];
  }
  [[nodiscard]] const T& front() const {
    assert(size_ > 0);
    return buf_[head_];
  }

  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[wrap(head_ + size_)] = std::move(v);
    ++size_;
  }
  template <class... Args>
  void emplace_back(Args&&... args) {
    push_back(T(std::forward<Args>(args)...));
  }

  void pop_front() {
    assert(size_ > 0);
    buf_[head_] = T{};  // drop held references right away
    head_ = wrap(head_ + 1);
    --size_;
  }

private:
  [[nodiscard]] std::size_t wrap(std::size_t i) const {
    return i >= buf_.size() ? i - buf_.size() : i;
  }

  void grow() {
    std::vector<T> nb(buf_.empty() ? 8 : buf_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      nb[i] = std::move(buf_[wrap(head_ + i)]);
    }
    buf_ = std::move(nb);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

} // namespace mdw::sim
