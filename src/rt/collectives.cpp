#include "rt/collectives.hpp"

#include <algorithm>
#include <stdexcept>

namespace gputn::rt {

namespace {
int mod(int a, int n) { return ((a % n) + n) % n; }
}  // namespace

RingAllreducePlan::RingAllreducePlan(int rank, int nranks,
                                     std::size_t elements)
    : rank_(rank), nranks_(nranks), elements_(elements) {
  if (nranks < 2) throw std::invalid_argument("ring allreduce needs >= 2 ranks");
  if (rank < 0 || rank >= nranks) throw std::invalid_argument("bad rank");
  if (elements < static_cast<std::size_t>(nranks)) {
    throw std::invalid_argument("fewer elements than ranks");
  }
  base_chunk_ = elements / nranks;

  const int to = mod(rank + 1, nranks);
  const int from = mod(rank - 1, nranks);
  // Reduce-scatter: step s sends chunk (rank - s), receives (rank - s - 1)
  // and reduces it. After N-1 steps this rank owns the fully reduced chunk
  // (rank + 1) mod N.
  for (int s = 0; s < nranks - 1; ++s) {
    RingStep st;
    st.index = s;
    st.reduce = true;
    st.send_chunk = mod(rank - s, nranks);
    st.recv_chunk = mod(rank - s - 1, nranks);
    st.to = to;
    st.from = from;
    steps_.push_back(st);
  }
  // Allgather: step s sends chunk (rank + 1 - s), receives (rank - s).
  for (int s = 0; s < nranks - 1; ++s) {
    RingStep st;
    st.index = nranks - 1 + s;
    st.reduce = false;
    st.send_chunk = mod(rank + 1 - s, nranks);
    st.recv_chunk = mod(rank - s, nranks);
    st.to = to;
    st.from = from;
    steps_.push_back(st);
  }
}

std::size_t RingAllreducePlan::chunk_elems(int c) const {
  if (c == nranks_ - 1) return elements_ - base_chunk_ * (nranks_ - 1);
  return base_chunk_;
}

std::size_t RingAllreducePlan::chunk_offset(int c) const {
  return base_chunk_ * static_cast<std::size_t>(c);
}

std::size_t RingAllreducePlan::max_chunk_elems() const {
  return std::max(base_chunk_, chunk_elems(nranks_ - 1));
}

}  // namespace gputn::rt
