#ifndef AUTHIDX_TEXT_COLLATE_H_
#define AUTHIDX_TEXT_COLLATE_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace authidx::text {

/// Collation for the printed author index.
///
/// An author index sorts names the way a human cataloguer does, not the
/// way memcmp does:
///
///  * case- and accent-insensitive ("Ábrams" between "Abramovsky" and
///    "Abrams" variants, not after "Z");
///  * punctuation (periods, hyphens, apostrophes) ignored at the primary
///    level ("O'Brien" ~ "OBrien");
///  * embedded numbers compared numerically ("Vol 9" < "Vol 12");
///  * ties broken by the original bytes so collation is still a total
///    order over distinct strings.
///
/// `MakeSortKey` produces a byte string such that memcmp order of the keys
/// equals this collation order; it is the precomputed-key fast path the
/// catalog's printed order and the title index use. `Compare` is the
/// direct (allocation-light) comparison used for one-off comparisons.

/// Builds a memcmp-comparable sort key for `s`.
std::string MakeSortKey(std::string_view s);

/// Three-way collation compare (-1, 0, +1) consistent with MakeSortKey.
int Compare(std::string_view a, std::string_view b);

/// The first 8 bytes of `key` as a big-endian integer, zero-padded when
/// `key` is shorter. Monotone in memcmp order: a < b implies
/// SortKeyPrefix(a) <= SortKeyPrefix(b), so comparing prefixes first and
/// the full keys only when the prefixes tie keeps the keys' order.
uint64_t SortKeyPrefix(std::string_view key);

}  // namespace authidx::text

#endif  // AUTHIDX_TEXT_COLLATE_H_
