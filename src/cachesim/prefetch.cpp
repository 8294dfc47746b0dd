#include "cachesim/prefetch.hpp"

#include <bit>

#include "common/assert.hpp"

namespace semperm::cachesim {

namespace {
/// Packed order word with nibble p holding slot id p: 0xFEDC...3210
/// truncated to `n` nibbles.
constexpr std::uint64_t identity_order(std::size_t n) {
  std::uint64_t o = 0;
  for (std::size_t p = 0; p < n; ++p) o |= std::uint64_t{p} << (4 * p);
  return o;
}
}  // namespace

StreamPrefetcher::StreamPrefetcher(unsigned trigger, unsigned degree,
                                   std::size_t table_size)
    : trigger_(trigger),
      degree_(degree),
      pages_(table_size, ~Addr{0}),
      table_(table_size),
      order_(identity_order(table_size)) {
  SEMPERM_ASSERT_MSG(table_size >= 1 && table_size <= 16,
                     "StreamPrefetcher table_size " << table_size
                         << " exceeds the 16-slot packed-order limit");
}

void StreamPrefetcher::touch(std::size_t s) {
  const unsigned n = static_cast<unsigned>(pages_.size());
  const unsigned top = 4 * (n - 1);
  if (((order_ >> top) & 0xF) == s) return;  // already MRU
  // Locate the (unique) nibble holding s: XOR against s broadcast to every
  // nibble, then flag zero nibbles with the borrow trick. Positions below
  // the true match hold no zero nibble, so no borrow reaches it and the
  // lowest flagged bit is exact; higher positions may flag spuriously but
  // countr_zero never reaches them.
  constexpr std::uint64_t kOnes = 0x1111111111111111ULL;
  const std::uint64_t live =
      n == 16 ? ~std::uint64_t{0} : (std::uint64_t{1} << (4 * n)) - 1;
  const std::uint64_t x = (order_ ^ (s * kOnes)) | ~live;
  const std::uint64_t zero = (x - kOnes) & ~x & (kOnes << 3);
  const unsigned p = static_cast<unsigned>(std::countr_zero(zero)) / 4;
  // Remove the nibble at p (close the gap) and append s at the MRU end.
  const std::uint64_t below = order_ & ((std::uint64_t{1} << (4 * p)) - 1);
  const std::uint64_t above = ((order_ >> (4 * (p + 1))) << (4 * p)) & live;
  order_ = below | above | (std::uint64_t{s} << top);
}

void StreamPrefetcher::allocate(Addr line) {
  // The LRU slot is the low nibble of the packed order; the new stream
  // rotates it to the MRU end.
  const std::size_t v = static_cast<std::size_t>(order_ & 0xF);
  pages_[v] = page_of_line(line);
  table_[v] = Stream{line, 0, 1};
  touch(v);
}

void StreamPrefetcher::reset() {
  for (auto& p : pages_) p = ~Addr{0};
  for (auto& s : table_) s = Stream{};
  order_ = identity_order(pages_.size());
}

}  // namespace semperm::cachesim
