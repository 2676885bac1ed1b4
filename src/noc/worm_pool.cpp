#include "noc/worm_pool.h"

#include <cassert>

namespace mdw::noc {

WormPool::WormPool() : owner_(std::this_thread::get_id()) {}

WormPool::~WormPool() {
  // Every worm must have come home: a worm released after its pool died
  // would dereference a dangling pool pointer.
  assert(outstanding_ == 0 && "worms outliving their WormPool");
  for (Worm* w : free_) delete w;
}

WormPtr WormPool::acquire() {
  assert(std::this_thread::get_id() == owner_);
  ++acquired_;
  ++outstanding_;
  Worm* w;
  if (!free_.empty()) {
    w = free_.back();
    free_.pop_back();
    ++reused_;
  } else {
    w = new Worm;
    w->pool = this;
  }
  return WormPtr(w);
}

void WormPool::recycle(Worm* w) noexcept {
  assert(w->refs == 0 && w->pool == this);
  assert(std::this_thread::get_id() == owner_);
  w->reset_for_reuse();
  --outstanding_;
  free_.push_back(w);
}

WormPool& WormPool::local() {
  static thread_local WormPool pool;
  return pool;
}

void release_worm(Worm* w) noexcept {
  if (w->pool != nullptr) {
    w->pool->recycle(w);
  } else {
    delete w;
  }
}

} // namespace mdw::noc
