#ifndef TDR_STORAGE_TYPES_H_
#define TDR_STORAGE_TYPES_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace tdr {

/// Database objects are identified by a dense integer id in
/// [0, DB_Size), matching the paper's "fixed set of objects" model.
using ObjectId = std::uint64_t;

/// Nodes are identified by a dense integer id in [0, Nodes).
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNodeId = static_cast<NodeId>(-1);

/// Transaction ids are globally unique across the cluster.
using TxnId = std::uint64_t;
inline constexpr TxnId kInvalidTxnId = 0;

/// The value model: a scalar (account balances, prices, seat counts) or
/// an append-only list (Lotus-Notes-style notes files, Section 6).
/// Scalars support blind writes and commutative add/subtract; lists
/// support commutative timestamped append.
///
/// Sixteen bytes: the scalar inline, and the list behind an owning
/// pointer that is null for scalars. Almost every stored value is a
/// scalar, and every node holds one Value per object (§2), so the list
/// form pays for its own storage instead of widening every slot.
class Value {
 public:
  using List = std::vector<std::int64_t>;

  /// Default: scalar zero.
  Value() = default;
  /// Scalar value.
  explicit Value(std::int64_t scalar) : scalar_(scalar) {}
  /// List value.
  explicit Value(List list) : list_(std::make_unique<List>(std::move(list))) {}

  /// Copies are deep: a copied list is the copy's own. Assignment takes
  /// an lvalue only: a store slot hands its value out by value, so
  /// `slot.value() = v` would compile and change nothing.
  Value(const Value& other) : scalar_(other.scalar_) {
    if (other.list_ != nullptr) list_ = std::make_unique<List>(*other.list_);
  }
  Value& operator=(const Value& other) & {
    scalar_ = other.scalar_;
    if (other.list_ == nullptr) {
      list_.reset();
    } else if (list_ != nullptr) {
      *list_ = *other.list_;  // reuses this list's capacity
    } else {
      list_ = std::make_unique<List>(*other.list_);
    }
    return *this;
  }
  /// A moved-from value is a valid scalar: zero if it held a list,
  /// unchanged if it held a scalar.
  Value(Value&&) noexcept = default;
  Value& operator=(Value&&) & noexcept = default;

  bool is_scalar() const { return list_ == nullptr; }
  bool is_list() const { return list_ != nullptr; }

  /// Scalar accessor; a list reads as its size (keeps arithmetic ops
  /// total — simplifies the op language; callers normally know the type).
  std::int64_t AsScalar() const {
    if (is_scalar()) return scalar_;
    return static_cast<std::int64_t>(list_->size());
  }

  const List& AsList() const {
    static const List kEmpty;
    return is_list() ? *list_ : kEmpty;
  }

  void SetScalar(std::int64_t v) {
    list_.reset();
    scalar_ = v;
  }

  /// Appends to the list form; a scalar value is promoted to a
  /// single-element list holding the old scalar first. Items are kept in
  /// sorted order — the item plays the role of the note's timestamp, and
  /// "notes are stored in timestamp order" (§6, Lotus Notes) is exactly
  /// what makes append commute: any interleaving of appends yields the
  /// same final list.
  void Append(std::int64_t item) {
    if (is_scalar()) {
      list_ = std::make_unique<List>();
      if (scalar_ != 0) list_->push_back(scalar_);
      scalar_ = 0;
    }
    auto it = std::lower_bound(list_->begin(), list_->end(), item);
    list_->insert(it, item);
  }

  std::string ToString() const {
    if (is_scalar()) return std::to_string(AsScalar());
    std::string out = "[";
    const List& l = AsList();
    for (std::size_t i = 0; i < l.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(l[i]);
    }
    out += "]";
    return out;
  }

  /// Kinds are distinct: a scalar never equals a list.
  friend bool operator==(const Value& a, const Value& b) {
    if (a.is_list() && b.is_list()) return *a.list_ == *b.list_;
    return a.is_list() == b.is_list() && a.scalar_ == b.scalar_;
  }
  friend bool operator!=(const Value& a, const Value& b) {
    return !(a == b);
  }

 private:
  std::int64_t scalar_ = 0;  // zero while a list is held
  std::unique_ptr<List> list_;
};

}  // namespace tdr

#endif  // TDR_STORAGE_TYPES_H_
