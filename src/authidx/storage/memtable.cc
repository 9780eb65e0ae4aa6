#include "authidx/storage/memtable.h"

#include <cstring>

namespace authidx::storage {

struct MemTable::Node {
  std::string_view key;
  std::string_view value;
  int height;
  // Flexible next array, allocated alongside the node in the arena.
  Node* next[1];

  Node* Next(int level) const { return next[level]; }
  void SetNext(int level, Node* node) { next[level] = node; }
};

MemTable::MemTable() : rng_(0x6175746878ULL) {
  // Uncontended by definition (no other thread can see a half-built
  // table), but taking the lock keeps the GUARDED_BY contract uniform
  // for the analysis at negligible one-time cost.
  WriterMutexLock lock(mu_);
  head_ = NewNode("", "", kMaxHeight);
  for (int i = 0; i < kMaxHeight; ++i) {
    head_->SetNext(i, nullptr);
  }
}

MemTable::Node* MemTable::NewNode(std::string_view key,
                                  std::string_view value, int height) {
  size_t bytes = sizeof(Node) + sizeof(Node*) * (static_cast<size_t>(height) - 1);
  char* mem = arena_.AllocateAligned(bytes);
  Node* node = reinterpret_cast<Node*>(mem);
  node->key = arena_.CopyString(key);
  node->value = arena_.CopyString(value);
  node->height = height;
  return node;
}

int MemTable::RandomHeight() {
  // Height h with probability 1/4^(h-1), capped.
  int height = 1;
  while (height < kMaxHeight && rng_.OneIn(4)) {
    ++height;
  }
  return height;
}

MemTable::Node* MemTable::FindGreaterOrEqual(std::string_view key,
                                             Node** prev) const {
  Node* node = head_;
  int level = height_ - 1;
  while (true) {
    Node* next = node->Next(level);
    if (next != nullptr && next->key < key) {
      node = next;
    } else {
      if (prev != nullptr) {
        prev[level] = node;
      }
      if (level == 0) {
        return next;
      }
      --level;
    }
  }
}

void MemTable::Put(std::string_view key, std::string_view value) {
  WriterMutexLock lock(mu_);
  Node* prev[kMaxHeight];
  for (int i = height_; i < kMaxHeight; ++i) {
    prev[i] = head_;
  }
  Node* node = FindGreaterOrEqual(key, prev);
  if (node != nullptr && node->key == key) {
    node->value = arena_.CopyString(value);
    return;
  }
  int height = RandomHeight();
  if (height > height_) {
    height_ = height;
  }
  Node* fresh = NewNode(key, value, height);
  for (int i = 0; i < height; ++i) {
    fresh->SetNext(i, prev[i]->Next(i));
    prev[i]->SetNext(i, fresh);
  }
  ++count_;
}

// Each operation takes the table's lock in shared mode: node links and
// value views may be written concurrently by Upsert (exclusive), but a
// node, its key, and any value bytes ever published stay valid for the
// memtable's lifetime (arena memory is never reclaimed), so a view read
// under the lock can be used after the lock is released.
class MemTable::Iter final : public Iterator {
 public:
  explicit Iter(const MemTable* table) : table_(table) {}

  bool Valid() const override { return node_ != nullptr; }
  void SeekToFirst() override {
    ReaderMutexLock lock(table_->mu_);
    node_ = table_->head_->Next(0);
  }
  void Seek(std::string_view target) override {
    ReaderMutexLock lock(table_->mu_);
    node_ = table_->FindGreaterOrEqual(target, nullptr);
  }
  void Next() override {
    ReaderMutexLock lock(table_->mu_);
    node_ = node_->Next(0);
  }
  std::string_view key() const override {
    ReaderMutexLock lock(table_->mu_);
    return node_->key;
  }
  std::string_view value() const override {
    ReaderMutexLock lock(table_->mu_);
    return node_->value;
  }
  Status status() const override { return Status::OK(); }

 private:
  const MemTable* table_;
  const Node* node_ = nullptr;
};

std::unique_ptr<Iterator> MemTable::NewIterator() const {
  return std::make_unique<Iter>(this);
}

}  // namespace authidx::storage
