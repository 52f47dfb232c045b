#include "runtime/mailbox.h"

namespace tdr::runtime {

void StopBarrier::ArriveAndWait() {
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t gen = generation_;
  if (++arrived_ == parties_) {
    arrived_ = 0;
    ++generation_;
    lock.unlock();
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [this, gen] { return generation_ != gen; });
}

bool Mailbox::Push(Task* task) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return false;
  task->next = nullptr;
  if (tail_ != nullptr) {
    tail_->next = task;
  } else {
    head_ = task;
  }
  tail_ = task;
  ++depth_;
  ++pushed_;
  if (depth_ > max_depth_) max_depth_ = depth_;
  lock.unlock();
  cv_.notify_one();
  return true;
}

Task* Mailbox::Pop() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return head_ != nullptr || closed_; });
  Task* task = head_;
  if (task == nullptr) return nullptr;
  head_ = task->next;
  if (head_ == nullptr) tail_ = nullptr;
  --depth_;
  task->next = nullptr;
  return task;
}

void Mailbox::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

}  // namespace tdr::runtime
