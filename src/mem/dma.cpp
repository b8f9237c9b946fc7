#include "mem/dma.hpp"

namespace gputn::mem {

sim::Task<> DmaEngine::consume_time(std::uint64_t n) {
  util_.enqueue(sim_->now());
  co_await busy_.acquire();
  util_.dequeue(sim_->now());
  util_.acquire(sim_->now());
  co_await sim_->delay(startup_ + bandwidth_.serialize(n));
  bytes_moved_ += n;
  util_.release(sim_->now());
  util_.add_bytes(n);
  busy_.release();
}

sim::Task<> DmaEngine::copy(Addr dst, Addr src, std::uint64_t n) {
  co_await consume_time(n);
  // Functional move happens at completion time, through write() so a
  // copy that lands on a polled flag wakes its spin-waits. The source is
  // read through a const view, which a parked word does not refuse.
  const Memory& from = *mem_;
  mem_->write(dst, from.bytes(src, n).data(), n);
}

sim::Task<> DmaEngine::read_into(std::vector<std::byte>& dst, Addr src,
                                 std::uint64_t n) {
  co_await consume_time(n);
  dst.resize(n);
  mem_->read(src, dst.data(), n);
}

sim::Task<> DmaEngine::write_from(Addr dst, const std::vector<std::byte>& src) {
  co_await consume_time(src.size());
  mem_->write(dst, src.data(), src.size());
}

}  // namespace gputn::mem
