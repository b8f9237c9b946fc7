#include "mem/dma.hpp"

#include <utility>

namespace gputn::mem {

void DmaEngine::copy(Addr dst, Addr src, std::uint64_t n,
                     sim::Callback<> done) {
  request(Transfer{Transfer::Kind::kCopy, dst, src, n, nullptr, nullptr,
                   done});
}

void DmaEngine::read_into(std::vector<std::byte>& dst, Addr src,
                          std::uint64_t n, sim::Callback<> done) {
  request(Transfer{Transfer::Kind::kRead, 0, src, n, &dst, nullptr, done});
}

void DmaEngine::write_from(Addr dst, const std::vector<std::byte>& src,
                           sim::Callback<> done) {
  request(Transfer{Transfer::Kind::kWrite, dst, 0, src.size(), nullptr, &src,
                   done});
}

void DmaEngine::request(Transfer t) {
  util_.enqueue(sim_->now());
  engine_.request(std::move(t));
}

void DmaEngine::start(Transfer&& t) {
  util_.dequeue(sim_->now());
  util_.acquire(sim_->now());
  cur_ = t;
  sim_->delay(startup_ + bandwidth_.serialize(cur_.n), [this] { complete(); });
}

void DmaEngine::complete() {
  // The continuation may start the next transfer inline, so work from a
  // copy of this one.
  Transfer t = cur_;
  bytes_moved_ += t.n;
  util_.release(sim_->now());
  util_.add_bytes(t.n);
  engine_.release();
  // The functional move happens at completion time, through write() so a
  // transfer that lands on a polled flag wakes its spin-waits. Sources are
  // read through a const view, which a parked word does not refuse.
  const Memory& from = *mem_;
  switch (t.kind) {
    case Transfer::Kind::kCopy:
      mem_->write(t.dst, from.bytes(t.src, t.n).data(), t.n);
      break;
    case Transfer::Kind::kRead: {
      // One copy: assign does not zero-fill the payload first.
      auto src = from.bytes(t.src, t.n);
      t.into->assign(src.begin(), src.end());
      break;
    }
    case Transfer::Kind::kWrite:
      mem_->write(t.dst, t.from->data(), t.n);
      break;
  }
  if (t.done) t.done();
}

}  // namespace gputn::mem
