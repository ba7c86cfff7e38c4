#ifndef ZIZIPHUS_COMMON_CLIENT_TABLE_H_
#define ZIZIPHUS_COMMON_CLIENT_TABLE_H_

#include <cstddef>
#include <iterator>
#include <map>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace ziziphus {

/// Largest client id a ClientTable stores (2^20 - 1: about a million
/// processes per run).
inline constexpr ClientId kMaxTableClientId = (ClientId{1} << 20) - 1;

/// True when a ClientTable can store `id`: a dense id or kInvalidClient.
constexpr bool ClientTableHolds(ClientId id) {
  return id <= kMaxTableClientId || id == kInvalidClient;
}

/// Per-client state indexed directly by ClientId. Client ids are simulator
/// process ids — small and dense — so a vector slot per id replaces the
/// ordered or hashed map lookups that every executed operation used to pay
/// at every replica.
///
/// Semantics follow std::map<ClientId, V>: operator[] inserts a
/// value-initialized entry, elements are std::pair<const ClientId, V>, and
/// iteration visits present ids in ascending order with kInvalidClient
/// (held in a side slot) last — exactly where std::map would put it — so an
/// ordered map built from a table (ToMap) is identical to the map it
/// replaces.
///
/// Ids above kMaxTableClientId (other than kInvalidClient) are not client
/// ids but corrupted ones: inserting one fails loudly instead of allocating
/// gigabytes. Callers that take ids from untrusted input screen them with
/// ClientTableHolds() first; find() on such an id simply returns null.
template <typename V>
class ClientTable {
 public:
  using value_type = std::pair<const ClientId, V>;

  ClientTable() = default;
  ClientTable(const ClientTable&) = default;
  ClientTable(ClientTable&& other) noexcept { *this = std::move(other); }
  // Elements hold a const id and cannot be assigned, so assignment
  // re-constructs the side slot and moves the dense vector wholesale. The
  // source is left empty.
  ClientTable& operator=(ClientTable&& other) noexcept {
    if (this == &other) return *this;
    dense_ = std::exchange(other.dense_, {});
    invalid_.reset();
    if (other.invalid_.has_value()) {
      invalid_.emplace(std::move(*other.invalid_));
    }
    other.invalid_.reset();
    size_ = std::exchange(other.size_, 0);
    return *this;
  }
  ClientTable& operator=(const ClientTable& other) {
    if (this != &other) *this = ClientTable(other);
    return *this;
  }

  V& operator[](ClientId id) {
    std::optional<value_type>& slot = SlotFor(id);
    if (!slot.has_value()) {
      slot.emplace(id, V{});
      ++size_;
    }
    return slot->second;
  }

  /// The entry for `id`, or null when absent (never grows the table).
  V* find(ClientId id) {
    std::optional<value_type>* slot = Lookup(id);
    return slot != nullptr && slot->has_value() ? &(*slot)->second : nullptr;
  }
  const V* find(ClientId id) const {
    return const_cast<ClientTable*>(this)->find(id);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() {
    dense_.clear();
    invalid_.reset();
    size_ = 0;
  }

  /// The table as an ordered map (same contents, same order).
  std::map<ClientId, V> ToMap() const {
    std::map<ClientId, V> out;
    for (const auto& [id, v] : *this) out.emplace_hint(out.end(), id, v);
    return out;
  }

  template <bool kConst>
  class Iter {
   public:
    using Table = std::conditional_t<kConst, const ClientTable, ClientTable>;
    using iterator_category = std::forward_iterator_tag;
    using value_type = ClientTable::value_type;
    using difference_type = std::ptrdiff_t;
    using reference =
        std::conditional_t<kConst, const value_type&, value_type&>;
    using pointer = std::conditional_t<kConst, const value_type*, value_type*>;

    Iter(Table* table, std::size_t pos) : table_(table), pos_(pos) { Skip(); }

    reference operator*() const { return *table_->SlotAt(pos_); }
    pointer operator->() const { return &*table_->SlotAt(pos_); }
    Iter& operator++() {
      ++pos_;
      Skip();
      return *this;
    }
    friend bool operator==(const Iter& a, const Iter& b) {
      return a.pos_ == b.pos_;
    }

   private:
    // Positions 0..dense_.size()-1 are dense ids, dense_.size() is the
    // kInvalidClient slot, dense_.size()+1 is end().
    void Skip() {
      while (pos_ <= table_->dense_.size() &&
             !table_->SlotAt(pos_).has_value()) {
        ++pos_;
      }
    }
    Table* table_;
    std::size_t pos_;
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, dense_.size() + 1); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, dense_.size() + 1); }

 private:
  std::optional<value_type>& SlotAt(std::size_t pos) {
    return pos < dense_.size() ? dense_[pos] : invalid_;
  }
  const std::optional<value_type>& SlotAt(std::size_t pos) const {
    return pos < dense_.size() ? dense_[pos] : invalid_;
  }
  std::optional<value_type>* Lookup(ClientId id) {
    if (id == kInvalidClient) return &invalid_;
    return id < dense_.size() ? &dense_[id] : nullptr;
  }
  std::optional<value_type>& SlotFor(ClientId id) {
    if (id == kInvalidClient) return invalid_;
    ZCHECK(id <= kMaxTableClientId);
    if (id >= dense_.size()) dense_.resize(std::size_t{id} + 1);
    return dense_[id];
  }

  std::vector<std::optional<value_type>> dense_;
  std::optional<value_type> invalid_;
  std::size_t size_ = 0;
};

}  // namespace ziziphus

#endif  // ZIZIPHUS_COMMON_CLIENT_TABLE_H_
