// Typed columnar storage: one ColumnData holds every cell of one column of
// an executing relation as a contiguous typed vector (int64/double/string)
// or a flat ciphertext arena, plus an optional null mask, with a
// row-of-Cells fallback for the rare heterogeneous column. Operators
// iterate column-at-a-time and move whole columns between tables; selection
// vectors (row-index arrays) replace intermediate row materialization.

#ifndef MPQ_EXEC_COLUMN_H_
#define MPQ_EXEC_COLUMN_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_hash.h"
#include "common/status.h"
#include "common/value.h"
#include "crypto/enc_value.h"

namespace mpq {

/// Row indices selected out of a table (always ascending within one batch).
using SelectionVector = std::vector<uint32_t>;

/// Physical representation of a column's cells.
enum class ColumnRep : uint8_t {
  kInt64,   ///< contiguous int64_t
  kDouble,  ///< contiguous double
  kString,  ///< contiguous std::string
  kEnc,     ///< flat ciphertext arena (EncArena)
  kCell,    ///< heterogeneous fallback: materialized Cells
};

const char* ColumnRepName(ColumnRep r);

/// The typed rep a plaintext column of `type` starts in.
ColumnRep RepForType(DataType type);

/// Flat storage of a kEnc column's ciphertexts: every blob back to back in
/// one byte arena, row i's blob at bytes[off[i], off[i+1]) — one allocation
/// per column instead of a heap string per cell. The column's (scheme, key)
/// is held once, as the key of its first non-null row; per-row keys are
/// kept only once rows mix keys, and per-row Paillier counts (aux) only once
/// some count is not 1. A NULL row of the owning column is a null slot: an
/// empty blob, count 1, and the column key.
class EncArena {
 public:
  /// The most blob bytes a uint32 offset can address.
  static constexpr size_t kMaxBytes = UINT32_MAX;

  /// An arena of `off.size() - 1` rows whose blobs (sized by the ascending
  /// offsets `off`, off[0] == 0) are zeroed, for a caller to fill in place
  /// through Slot(). `key` is the column key, or nullopt when no row has
  /// set one (every row a null slot); `keys` and `aux` are empty or hold
  /// one entry per row, exactly as Push/PushNull would have built them.
  static EncArena Sized(std::optional<EncKey> key, std::vector<uint32_t> off,
                        std::vector<EncKey> keys = {},
                        std::vector<int64_t> aux = {});

  size_t size() const { return off_.empty() ? 0 : off_.size() - 1; }
  /// Total blob bytes.
  size_t bytes() const { return bytes_.size(); }
  /// Whether rows are under more than one key.
  bool mixed_keys() const { return !keys_.empty(); }
  /// Whether some row's Paillier count is not 1.
  bool has_aux() const { return !aux_.empty(); }
  /// The column key: that of the first non-null row (nullopt before one).
  std::optional<EncKey> key() const {
    return keyed_ ? std::optional<EncKey>(key_) : std::nullopt;
  }
  /// Every blob back to back: row i's at data() + BlobOffset(i).
  const char* data() const { return bytes_.data(); }

  std::string_view blob(size_t i) const {
    return std::string_view(bytes_.data() + off_[i], off_[i + 1] - off_[i]);
  }
  EncKey KeyAt(size_t i) const { return keys_.empty() ? key_ : keys_[i]; }
  int64_t AuxAt(size_t i) const { return aux_.empty() ? 1 : aux_[i]; }
  EncView At(size_t i) const { return EncView(KeyAt(i), blob(i), AuxAt(i)); }

  /// Where row i's blob starts in the arena (i <= size(); 0 when empty).
  size_t BlobOffset(size_t i) const { return off_.empty() ? 0 : off_[i]; }

  /// Row i's blob bytes, writable (Sized arenas; rows are disjoint, so
  /// concurrent fills of different rows do not race).
  char* Slot(size_t i) { return &bytes_[off_[i]]; }

  /// Whether `n` more blob bytes stay addressable.
  bool Fits(size_t n) const { return n <= kMaxBytes - bytes_.size(); }

  void Reserve(size_t rows, size_t bytes);
  void Clear();

  /// Appends a ciphertext. Precondition: Fits(ev.blob.size()).
  void Push(EncView ev);
  /// Appends a null slot.
  void PushNull();

  /// Row-wise equality of (key, blob, aux).
  bool operator==(const EncArena& o) const;
  bool operator!=(const EncArena& o) const { return !(*this == o); }

 private:
  friend class ColumnData;

  /// Appends src rows rows(0..n), as null slots where `src_nulls` (empty,
  /// or one byte per src row) marks them. Returns false, appending
  /// nothing, when the blobs would not fit.
  template <typename Rows>
  bool AppendRows(const EncArena& src, const std::vector<uint8_t>& src_nulls,
                  size_t n, Rows rows);

  std::string bytes_;
  /// Empty, or size() + 1 ascending offsets from 0 (an empty column, as
  /// every plaintext ColumnData holds, allocates nothing).
  std::vector<uint32_t> off_;
  bool keyed_ = false;  ///< a non-null row has set key_
  EncKey key_;
  std::vector<EncKey> keys_;  ///< per-row keys; empty unless rows mix keys
  std::vector<int64_t> aux_;  ///< per-row counts; empty while all are 1
};

/// One column of a Table. The rep is a starting point, not a contract:
/// appending a cell the current rep cannot hold demotes the column to the
/// kCell fallback, so any historical row-major content remains expressible.
/// NULL cells of typed reps live in the null mask (one byte per row,
/// allocated lazily); the typed vector holds a default value in masked
/// slots. The kCell rep represents NULLs as null cells and never carries a
/// mask.
class ColumnData {
 public:
  ColumnData() = default;
  explicit ColumnData(ColumnRep rep) : rep_(rep) {}

  ColumnRep rep() const { return rep_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool has_nulls() const { return !nulls_.empty(); }
  bool IsNull(size_t i) const { return !nulls_.empty() && nulls_[i] != 0; }

  /// Typed storage. Valid only for the matching rep.
  const std::vector<int64_t>& i64() const { return i64_; }
  const std::vector<double>& f64() const { return f64_; }
  const std::vector<std::string>& str() const { return str_; }
  const EncArena& enc() const { return enc_; }
  const std::vector<Cell>& cells() const { return cells_; }
  std::vector<Cell>& cells() { return cells_; }

  /// Reserves room for `n` rows (and, on kEnc, `enc_bytes` blob bytes).
  void Reserve(size_t n, size_t enc_bytes = 0);
  void Clear();

  /// Appends one cell, demoting the rep if it cannot hold it.
  void Append(Cell c);
  void AppendValue(Value v);
  void AppendEnc(EncView ev);
  void AppendNull();

  /// Materializes row `i` as a Cell.
  Cell GetCell(size_t i) const;

  /// The ciphertext at row `i`: a view into the arena for rep kEnc, of the
  /// cell variant's payload on the kCell fallback. Precondition: row `i`
  /// holds a ciphertext.
  EncView EncAt(size_t i) const {
    return rep_ == ColumnRep::kEnc ? enc_.At(i) : EncView(cells_[i].enc());
  }

  /// Plaintext view of row `i`; rep must not be kEnc (kCell rows must hold
  /// plain cells).
  Value GetValue(size_t i) const;

  /// Appends row `i` of `src` (any rep combination).
  void AppendFrom(const ColumnData& src, size_t i);

  /// Appends rows [begin, end) of `src`.
  void AppendRange(const ColumnData& src, size_t begin, size_t end);

  /// Gather: appends src rows sel[0..n) in order.
  void AppendSelected(const ColumnData& src, const uint32_t* sel, size_t n);

  /// Appends row `i` of `src` `times` times (cartesian left side).
  void AppendRepeated(const ColumnData& src, size_t i, size_t times);

  /// Splices `src` onto this column, stealing its buffers when possible
  /// (whole-vector move when this column is empty and reps match; otherwise
  /// element moves). `src` is left empty.
  void MoveAppend(ColumnData&& src);

  /// Converts typed storage to the kCell fallback (no-op when already
  /// there).
  void DemoteToCells();

  /// Replaces this column's content with one typed vector and its null
  /// mask (empty, or one entry per row, 1 = NULL), switching the rep to
  /// match. Masked slots must hold the defaults AppendNull writes. A mask
  /// that marks no row is dropped, so the result equals appending the same
  /// rows one at a time.
  void Adopt(std::vector<int64_t> vals, std::vector<uint8_t> nulls = {});
  void Adopt(std::vector<double> vals, std::vector<uint8_t> nulls = {});
  void Adopt(std::vector<std::string> vals, std::vector<uint8_t> nulls = {});
  void Adopt(EncArena vals, std::vector<uint8_t> nulls = {});
  /// The kCell fallback: NULLs are null cells, never a mask.
  void Adopt(std::vector<Cell> cells);

  /// Payload bytes, matching the historical per-Cell accounting: null 1,
  /// int64/double 8, string len+4, ciphertext blob+8.
  uint64_t ByteSize() const;

 private:
  /// Extends the null mask to size_ entries (all zero) if absent.
  void EnsureNulls();
  /// Appends `n` not-null entries to the mask if it exists.
  void GrowNulls(size_t n);
  /// Clears the column, then installs `rep` over `size` rows with `nulls`
  /// (dropped when it marks no row); the caller moves the typed vector in.
  void ResetForAdopt(ColumnRep rep, size_t size, std::vector<uint8_t> nulls);

  ColumnRep rep_ = ColumnRep::kCell;
  size_t size_ = 0;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<std::string> str_;
  EncArena enc_;
  std::vector<Cell> cells_;
  std::vector<uint8_t> nulls_;  ///< empty, or size_ entries (1 = NULL)
};

/// Appends the grouping/join key bytes of row `r` to `out` — the same
/// equality semantics as CellGroupKey: plaintext by canonical serialization,
/// DET/OPE ciphertexts by blob, RND/HOM unsupported.
Status AppendKeyBytes(const ColumnData& col, size_t r, std::string* out);

/// Dictionary encoder over a string or DET/OPE ciphertext column: interns
/// each distinct value (string content, ciphertext blob) into a dense
/// first-occurrence code, so join/group-by keys over variable-width columns
/// become fixed-width words with zero byte copies — values are referenced by
/// the row of their first occurrence. Codes are comparable only within one
/// dictionary; a probe column encoded against a build dictionary maps unseen
/// values to kMiss. RND/HOM ciphertext rows fail with the same kUnsupported
/// status as AppendKeyBytes, preserving key-semantics errors exactly.
class ColumnDict {
 public:
  /// Probe-miss marker (never a valid code: codes are dense row ranks).
  static constexpr uint32_t kMiss = 0xffffffffu;

  /// `col` must outlive the dictionary and stay unmodified.
  explicit ColumnDict(const ColumnData* col) : col_(col) {}

  /// Codes of rows [begin, end) in first-occurrence intern order; null rows
  /// get code 0 (callers track nulls separately, null never reaches the
  /// dictionary). `codes` receives end - begin entries.
  Status EncodeRange(size_t begin, size_t end, uint32_t* codes);

  /// Probe-only encoding of another column's rows against this dictionary:
  /// values absent from it get kMiss, null rows get 0. `probe` must have the
  /// same rep as the dictionary's column. Read-only, safe to call
  /// concurrently once building is done.
  Status ProbeRange(const ColumnData& probe, size_t begin, size_t end,
                    uint32_t* codes) const;

  /// Number of distinct interned values.
  size_t size() const { return rep_rows_.size(); }

  /// Row (in the dictionary's own column) holding code `code`'s value.
  uint32_t RepRow(uint32_t code) const { return rep_rows_[code]; }

 private:
  const ColumnData* col_;
  FlatHashIndex index_;
  std::vector<uint32_t> rep_rows_;  ///< code -> first-occurrence row
};

/// Builds a column from materialized cells, choosing the typed rep from the
/// first non-null cell (heterogeneous content demotes to kCell).
ColumnData ColumnFromCells(std::vector<Cell> cells);

/// Builds a ciphertext column from EncValues.
ColumnData ColumnFromEnc(const std::vector<EncValue>& encs);

/// Splices column parts, in order, into the column ColumnFromCells builds
/// from the same cells: parts filled by appends (possibly in parallel, one
/// per morsel) join without materializing a Cell per row.
ColumnData ConcatColumns(std::vector<ColumnData> parts);

}  // namespace mpq

#endif  // MPQ_EXEC_COLUMN_H_
