#include "authidx/text/collate.h"

#include "authidx/text/normalize.h"

namespace authidx::text {
namespace {

// Primary-level key: folded letters, digit runs encoded for numeric
// order, everything else dropped. All emitted bytes are >= 0x20, so
// 0x01 is free to use as the primary/tiebreak separator.
void AppendPrimary(std::string_view s, std::string* key) {
  std::string folded = FoldCase(s);
  size_t i = 0;
  bool last_was_space = true;  // Suppress leading separators.
  while (i < folded.size()) {
    char c = folded[i];
    if (IsAsciiDigit(c)) {
      // Strip leading zeros, then emit <0x30 + len><digits> so that
      // longer numbers (greater values) sort after shorter ones.
      size_t start = i;
      while (i < folded.size() && IsAsciiDigit(folded[i])) {
        ++i;
      }
      std::string_view run = std::string_view(folded).substr(start, i - start);
      while (run.size() > 1 && run.front() == '0') {
        run.remove_prefix(1);
      }
      size_t len = run.size() < 77 ? run.size() : 77;  // Clamp: 0x30+77<0x80.
      key->push_back(static_cast<char>(0x30 + len));
      key->append(run.substr(0, len));
      last_was_space = false;
      continue;
    }
    if (c >= 'a' && c <= 'z') {
      key->push_back(c);
      last_was_space = false;
    } else if ((c == ' ' || c == '\t') && !last_was_space) {
      key->push_back(' ');
      last_was_space = true;
    }
    // Punctuation and other bytes are ignored at the primary level.
    ++i;
  }
  // Drop a trailing separator.
  if (!key->empty() && key->back() == ' ') {
    key->pop_back();
  }
}

}  // namespace

std::string MakeSortKey(std::string_view s) {
  std::string key;
  key.reserve(s.size() + 8);
  AppendPrimary(s, &key);
  // Tiebreak on the original bytes so distinct inputs never compare
  // equal. 0x01 sorts below every primary byte, so a string that is a
  // strict primary prefix of another still sorts first.
  key.push_back('\x01');
  key.append(s);
  return key;
}

int Compare(std::string_view a, std::string_view b) {
  std::string ka = MakeSortKey(a);
  std::string kb = MakeSortKey(b);
  int c = ka.compare(kb);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

uint64_t SortKeyPrefix(std::string_view key) {
  uint64_t prefix = 0;
  for (size_t i = 0; i < 8; ++i) {
    const uint64_t byte =
        i < key.size() ? static_cast<unsigned char>(key[i]) : 0;
    prefix = (prefix << 8) | byte;
  }
  return prefix;
}

}  // namespace authidx::text
