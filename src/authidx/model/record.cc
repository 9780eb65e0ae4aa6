#include "authidx/model/record.h"

#include "authidx/common/strings.h"

namespace authidx {

std::string AuthorName::ToIndexForm() const {
  std::string out = surname;
  if (!given.empty()) {
    out += ", ";
    out += given;
  }
  if (!suffix.empty()) {
    out += ", ";
    out += suffix;
  }
  if (student_material) {
    out += "*";
  }
  return out;
}

std::string AuthorName::GroupKey() const {
  std::string out = surname;
  out += ", ";
  out += given;
  if (!suffix.empty()) {
    out += ", ";
    out += suffix;
  }
  return out;
}

std::string Citation::ToString() const {
  return StringPrintf("%u:%u (%u)", volume, page, year);
}

Status ValidateEntry(const Entry& entry) {
  if (entry.author.surname.empty()) {
    return Status::InvalidArgument("entry has empty author surname");
  }
  if (entry.title.empty()) {
    return Status::InvalidArgument("entry has empty title");
  }
  if (entry.citation.volume == 0 || entry.citation.volume > 10000) {
    return Status::InvalidArgument(
        StringPrintf("implausible volume %u", entry.citation.volume));
  }
  if (entry.citation.page == 0 || entry.citation.page > 100000) {
    return Status::InvalidArgument(
        StringPrintf("implausible page %u", entry.citation.page));
  }
  if (entry.citation.year < 1800 || entry.citation.year > 2100) {
    return Status::InvalidArgument(
        StringPrintf("implausible year %u", entry.citation.year));
  }
  return Status::OK();
}

}  // namespace authidx
