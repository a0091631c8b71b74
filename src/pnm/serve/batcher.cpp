#include "pnm/serve/batcher.hpp"

#include <stdexcept>

namespace pnm::serve {

ServeRequest* RequestPool::acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_.empty()) {
    ServeRequest* r = free_.back();
    free_.pop_back();
    return r;
  }
  all_.push_back(std::make_unique<ServeRequest>());
  return all_.back().get();
}

void RequestPool::release(std::span<ServeRequest* const> requests) {
  for (ServeRequest* r : requests) {
    r->conn.reset();
    r->id = 0;
    r->model_name.clear();  // keeps capacity
    r->features.clear();    // keeps capacity
    r->xq.clear();          // keeps capacity
    r->staged_bits = -1;
  }
  if (requests.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  free_.insert(free_.end(), requests.begin(), requests.end());
}

std::size_t RequestPool::created() const {
  std::lock_guard<std::mutex> lock(mu_);
  return all_.size();
}

Batcher::Batcher(std::size_t batch_max, std::int64_t deadline_us)
    : batch_max_(batch_max), deadline_(deadline_us) {
  if (batch_max == 0) throw std::invalid_argument("Batcher: batch_max must be >= 1");
  if (deadline_us < 0) throw std::invalid_argument("Batcher: negative deadline");
  ring_.resize(64, nullptr);
}

void Batcher::push(std::span<ServeRequest* const> requests,
                   std::chrono::steady_clock::time_point admitted) {
  if (requests.empty()) return;
  for (ServeRequest* r : requests) r->admitted = admitted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t need = size_locked() + requests.size();
    if (need > ring_.size()) {
      // Grow once to the power of two that fits: re-lay the live window
      // at absolute positions in the bigger ring (indices keep their
      // absolute values).
      std::size_t cap = ring_.size() * 2;
      while (cap < need) cap *= 2;
      std::vector<ServeRequest*> bigger(cap, nullptr);
      for (std::size_t i = head_; i < tail_; ++i) {
        bigger[i & (cap - 1)] = ring_[i & (ring_.size() - 1)];
      }
      ring_.swap(bigger);
    }
    for (ServeRequest* r : requests) ring_[tail_++ & (ring_.size() - 1)] = r;
  }
  cv_.notify_one();
}

ServeRequest* Batcher::pop_front_locked() {
  ServeRequest* r = ring_[head_ & (ring_.size() - 1)];
  ++head_;
  return r;
}

bool Batcher::pop_batch(std::vector<ServeRequest*>& out) {
  out.clear();
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return size_locked() > 0 || shutdown_; });
    if (size_locked() == 0) return false;  // shutdown drain finished

    // Coalesce: the oldest queued request anchors the departure deadline.
    const auto depart_at = ring_[head_ & (ring_.size() - 1)]->admitted + deadline_;
    while (size_locked() > 0 && size_locked() < batch_max_ && !shutdown_) {
      if (cv_.wait_until(lock, depart_at) == std::cv_status::timeout) break;
    }
    // Another worker may have taken everything while this one coalesced;
    // in that case go back to waiting rather than hand out an empty batch.
    if (size_locked() == 0) continue;
    const std::size_t take = std::min(batch_max_, size_locked());
    for (std::size_t i = 0; i < take; ++i) out.push_back(pop_front_locked());
    lock.unlock();
    // More work may remain (e.g. the queue outgrew one batch); hand the
    // next batch to another worker immediately instead of after its own
    // deadline wait.
    cv_.notify_one();
    return true;
  }
}

void Batcher::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

std::size_t Batcher::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_locked();
}

}  // namespace pnm::serve
