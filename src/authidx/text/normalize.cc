#include "authidx/text/normalize.h"

#include <cstdint>

namespace authidx::text {
namespace {

// Decodes one UTF-8 code point at s[i..]; returns the code point and
// advances *i. Invalid sequences yield the single byte as-is (latin-1
// fallback keeps the function total).
uint32_t DecodeUtf8(std::string_view s, size_t* i) {
  unsigned char c0 = static_cast<unsigned char>(s[*i]);
  if (c0 < 0x80) {
    ++*i;
    return c0;
  }
  auto cont = [&](size_t k) {
    return *i + k < s.size() &&
           (static_cast<unsigned char>(s[*i + k]) & 0xC0) == 0x80;
  };
  if ((c0 & 0xE0) == 0xC0 && cont(1)) {
    uint32_t cp = (c0 & 0x1Fu) << 6 |
                  (static_cast<unsigned char>(s[*i + 1]) & 0x3Fu);
    *i += 2;
    return cp;
  }
  if ((c0 & 0xF0) == 0xE0 && cont(1) && cont(2)) {
    uint32_t cp = (c0 & 0x0Fu) << 12 |
                  (static_cast<unsigned char>(s[*i + 1]) & 0x3Fu) << 6 |
                  (static_cast<unsigned char>(s[*i + 2]) & 0x3Fu);
    *i += 3;
    return cp;
  }
  if ((c0 & 0xF8) == 0xF0 && cont(1) && cont(2) && cont(3)) {
    uint32_t cp = (c0 & 0x07u) << 18 |
                  (static_cast<unsigned char>(s[*i + 1]) & 0x3Fu) << 12 |
                  (static_cast<unsigned char>(s[*i + 2]) & 0x3Fu) << 6 |
                  (static_cast<unsigned char>(s[*i + 3]) & 0x3Fu);
    *i += 4;
    return cp;
  }
  ++*i;
  return c0;
}

void EncodeUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

// Folds one code point to lowercase unaccented form; returns 0 when the
// code point maps to nothing (currently never). Multi-char expansions
// (ß -> ss, Æ -> ae) are handled by the caller via this table returning
// a small string.
const char* FoldCodePoint(uint32_t cp, char* ascii_buf) {
  // ASCII.
  if (cp < 0x80) {
    char c = static_cast<char>(cp);
    if (c >= 'A' && c <= 'Z') {
      c = static_cast<char>(c - 'A' + 'a');
    }
    ascii_buf[0] = c;
    ascii_buf[1] = '\0';
    return ascii_buf;
  }
  // Latin-1 Supplement.
  switch (cp) {
    case 0xC0: case 0xC1: case 0xC2: case 0xC3: case 0xC4: case 0xC5:
    case 0xE0: case 0xE1: case 0xE2: case 0xE3: case 0xE4: case 0xE5:
      return "a";
    case 0xC6: case 0xE6:
      return "ae";
    case 0xC7: case 0xE7:
      return "c";
    case 0xC8: case 0xC9: case 0xCA: case 0xCB:
    case 0xE8: case 0xE9: case 0xEA: case 0xEB:
      return "e";
    case 0xCC: case 0xCD: case 0xCE: case 0xCF:
    case 0xEC: case 0xED: case 0xEE: case 0xEF:
      return "i";
    case 0xD0: case 0xF0:
      return "d";
    case 0xD1: case 0xF1:
      return "n";
    case 0xD2: case 0xD3: case 0xD4: case 0xD5: case 0xD6: case 0xD8:
    case 0xF2: case 0xF3: case 0xF4: case 0xF5: case 0xF6: case 0xF8:
      return "o";
    case 0xD9: case 0xDA: case 0xDB: case 0xDC:
    case 0xF9: case 0xFA: case 0xFB: case 0xFC:
      return "u";
    case 0xDD: case 0xFD: case 0xFF:
      return "y";
    case 0xDE: case 0xFE:
      return "th";
    case 0xDF:
      return "ss";
    default:
      break;
  }
  // Latin Extended-A: pairs (upper, lower) share a base letter; fold by
  // range.
  if (cp >= 0x100 && cp <= 0x17F) {
    struct Range {
      uint32_t lo, hi;
      const char* base;
    };
    static constexpr Range kRanges[] = {
        {0x100, 0x105, "a"}, {0x106, 0x10D, "c"}, {0x10E, 0x111, "d"},
        {0x112, 0x11B, "e"}, {0x11C, 0x123, "g"}, {0x124, 0x127, "h"},
        {0x128, 0x131, "i"}, {0x132, 0x133, "ij"}, {0x134, 0x135, "j"},
        {0x136, 0x138, "k"}, {0x139, 0x142, "l"}, {0x143, 0x14B, "n"},
        {0x14C, 0x151, "o"}, {0x152, 0x153, "oe"}, {0x154, 0x159, "r"},
        {0x15A, 0x161, "s"}, {0x162, 0x167, "t"}, {0x168, 0x173, "u"},
        {0x174, 0x175, "w"}, {0x176, 0x178, "y"}, {0x179, 0x17E, "z"},
    };
    for (const Range& r : kRanges) {
      if (cp >= r.lo && cp <= r.hi) {
        return r.base;
      }
    }
  }
  return nullptr;  // Pass through.
}

}  // namespace

std::string FoldCase(std::string_view utf8) {
  std::string out;
  out.reserve(utf8.size());
  size_t i = 0;
  char ascii_buf[2];
  while (i < utf8.size()) {
    size_t start = i;
    uint32_t cp = DecodeUtf8(utf8, &i);
    const char* folded = FoldCodePoint(cp, ascii_buf);
    if (folded != nullptr) {
      out.append(folded);
    } else {
      EncodeUtf8(cp, &out);
      (void)start;
    }
  }
  return out;
}

std::string NormalizeForIndex(std::string_view utf8) {
  std::string folded = FoldCase(utf8);
  std::string out;
  out.reserve(folded.size());
  bool pending_space = false;
  for (char c : folded) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
        c == '\v') {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace authidx::text
