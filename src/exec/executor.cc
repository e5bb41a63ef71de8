#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include <unistd.h>

#include "common/flat_hash.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "crypto/cipher.h"
#include "crypto/column_codec.h"
#include "exec/morsel.h"
#include "obs/trace.h"
#include "storage/segment.h"

namespace mpq {

namespace {

/// Batch size with the zero value normalized, matching Table::Batch and the
/// morsel grain so `begin / Grain(ctx)` is always a valid batch index.
size_t Grain(const ExecContext* ctx) {
  return ctx->batch_size == 0 ? 1 : ctx->batch_size;
}

/// The per-batch loop of operator `kind`: run on the context's
/// MorselScheduler (all concurrent queries then draw from one task queue),
/// or as a plain inline loop without one. The (n, grain) morsel partition is
/// identical either way, so results are too. Also accounts the loop's
/// morsel count for the operator profile and for per-operator span
/// attribution.
Status RunOpMorsels(ExecContext* ctx, OpKind kind, size_t n,
                    const std::function<Status(size_t, size_t)>& fn) {
  size_t grain = Grain(ctx);
  if (n > 0) {
    uint64_t m = (n + grain - 1) / grain;
    if (ctx->op_profile != nullptr) ctx->op_profile->RecordMorsels(kind, m);
    ctx->op_morsels.fetch_add(m, std::memory_order_relaxed);
  }
  return RunMorsels(ctx->morsels, n, grain, fn);
}

Status ColNotFound(const PlanNode* n, AttrId a, const Catalog& catalog) {
  return Status::Internal(StrFormat(
      "node %d (%s): attribute %s not found in operand table", n->id,
      OpKindName(n->kind), catalog.attrs().Name(a).c_str()));
}

/// Encrypts a predicate constant to match an encrypted column, using the
/// dispatcher's keys (conditions arrive pre-encrypted in real dispatch).
Result<Cell> ConstForColumn(const ExecColumn& col, const Value& v,
                            ExecContext* ctx) {
  if (!col.encrypted) return Cell(v);
  if (ctx->dispatcher_keyring == nullptr) {
    return Status::NotFound("no dispatcher keyring to encrypt constants");
  }
  MPQ_ASSIGN_OR_RETURN(KeyMaterial km,
                       ctx->dispatcher_keyring->Get(col.key_id));
  MPQ_ASSIGN_OR_RETURN(
      EncValue ev,
      EncryptValue(v, col.scheme, col.key_id, km, ctx->NextNonce()));
  return Cell(std::move(ev));
}

/// One predicate bound to column indices of an operand table. Constants for
/// encrypted columns are bound once per operator, then shared read-only by
/// all batches.
struct BoundPredicate {
  CmpOp op;
  int lhs_col;
  int rhs_col = -1;     // >= 0 for attr-attr predicates
  Cell rhs_const;       // used when rhs_col < 0
};

Result<BoundPredicate> BindPredicate(const Predicate& p, const Table& t,
                                     const PlanNode* n, ExecContext* ctx) {
  BoundPredicate bp;
  bp.op = p.op;
  bp.lhs_col = t.ColIndex(p.lhs);
  if (bp.lhs_col < 0) return ColNotFound(n, p.lhs, *ctx->catalog);
  if (p.rhs_is_attr) {
    bp.rhs_col = t.ColIndex(p.rhs_attr);
    if (bp.rhs_col < 0) return ColNotFound(n, p.rhs_attr, *ctx->catalog);
  } else {
    MPQ_ASSIGN_OR_RETURN(
        bp.rhs_const,
        ConstForColumn(t.columns()[static_cast<size_t>(bp.lhs_col)],
                       p.rhs_value, ctx));
  }
  return bp;
}

bool ApplyCmp(CmpOp op, int c) {
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

bool PlainTypedRep(ColumnRep r) {
  return r == ColumnRep::kInt64 || r == ColumnRep::kDouble ||
         r == ColumnRep::kString;
}

/// Value::Compare's type tag: NULL 0, numeric 1, string 2.
int RepClass(ColumnRep r) { return r == ColumnRep::kString ? 2 : 1; }

/// Three-way comparison of plain typed rows `(a, i)` vs `(b, j)`,
/// bit-compatible with Value::Compare (NULL first, numerics compared as
/// double, number-vs-string by type tag).
int CmpPlainRows(const ColumnData& a, size_t i, const ColumnData& b, size_t j) {
  bool an = a.IsNull(i), bn = b.IsNull(j);
  if (an || bn) return an == bn ? 0 : (an ? -1 : 1);
  int ca = RepClass(a.rep()), cb = RepClass(b.rep());
  if (ca != cb) return ca < cb ? -1 : 1;
  if (ca == 2) {
    int c = a.str()[i].compare(b.str()[j]);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  double x = a.rep() == ColumnRep::kInt64 ? static_cast<double>(a.i64()[i])
                                          : a.f64()[i];
  double y = b.rep() == ColumnRep::kInt64 ? static_cast<double>(b.i64()[j])
                                          : b.f64()[j];
  if (x < y) return -1;
  if (x > y) return 1;
  return 0;
}

/// Refines `sel` (ascending row indices into `t`) down to the rows
/// satisfying `bp`, column-at-a-time. Typed plain and DET/OPE ciphertext
/// columns take branch-light vector paths; anything unusual falls back to
/// materialized CompareCells with identical semantics.
Status FilterSelection(const BoundPredicate& bp, const Table& t,
                       SelectionVector* sel) {
  const ColumnData& lhs = t.col(static_cast<size_t>(bp.lhs_col));
  size_t kept = 0;
  SelectionVector& s = *sel;

  // Attr-attr predicates.
  if (bp.rhs_col >= 0) {
    const ColumnData& rhs = t.col(static_cast<size_t>(bp.rhs_col));
    if (PlainTypedRep(lhs.rep()) && PlainTypedRep(rhs.rep())) {
      for (uint32_t r : s) {
        if (ApplyCmp(bp.op, CmpPlainRows(lhs, r, rhs, r))) s[kept++] = r;
      }
      s.resize(kept);
      return Status::OK();
    }
    if (lhs.rep() == ColumnRep::kEnc && rhs.rep() == ColumnRep::kEnc) {
      for (uint32_t r : s) {
        if (lhs.IsNull(r) || rhs.IsNull(r)) {
          // A plain NULL inside a ciphertext column: defer to the generic
          // cell comparison (mixed plain/encrypted is an error there).
          MPQ_ASSIGN_OR_RETURN(
              bool keep, CompareCells(bp.op, lhs.GetCell(r), rhs.GetCell(r)));
          if (keep) s[kept++] = r;
          continue;
        }
        MPQ_ASSIGN_OR_RETURN(bool keep,
                             CompareEnc(bp.op, lhs.EncAt(r), rhs.EncAt(r)));
        if (keep) s[kept++] = r;
      }
      s.resize(kept);
      return Status::OK();
    }
    for (uint32_t r : s) {
      MPQ_ASSIGN_OR_RETURN(
          bool keep, CompareCells(bp.op, lhs.GetCell(r), rhs.GetCell(r)));
      if (keep) s[kept++] = r;
    }
    s.resize(kept);
    return Status::OK();
  }

  // Attr-constant predicates.
  if (bp.rhs_const.is_plain() && PlainTypedRep(lhs.rep())) {
    const Value& v = bp.rhs_const.plain();
    int cclass = v.is_null() ? 0 : (v.is_string() ? 2 : 1);
    double num = cclass == 1 ? v.AsDouble() : 0;
    const std::string* str = cclass == 2 ? &v.AsString() : nullptr;
    int lclass = RepClass(lhs.rep());
    for (uint32_t r : s) {
      int cmp;
      if (lhs.IsNull(r)) {
        cmp = cclass == 0 ? 0 : -1;
      } else if (cclass == 0) {
        cmp = 1;
      } else if (lclass != cclass) {
        cmp = lclass < cclass ? -1 : 1;
      } else if (lclass == 2) {
        int c = lhs.str()[r].compare(*str);
        cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
      } else {
        double x = lhs.rep() == ColumnRep::kInt64
                       ? static_cast<double>(lhs.i64()[r])
                       : lhs.f64()[r];
        cmp = x < num ? -1 : (x > num ? 1 : 0);
      }
      if (ApplyCmp(bp.op, cmp)) s[kept++] = r;
    }
    s.resize(kept);
    return Status::OK();
  }
  if (bp.rhs_const.is_encrypted() && lhs.rep() == ColumnRep::kEnc) {
    EncView ev = bp.rhs_const.enc();
    for (uint32_t r : s) {
      if (lhs.IsNull(r)) {
        MPQ_ASSIGN_OR_RETURN(
            bool keep, CompareCells(bp.op, lhs.GetCell(r), bp.rhs_const));
        if (keep) s[kept++] = r;
        continue;
      }
      MPQ_ASSIGN_OR_RETURN(bool keep, CompareEnc(bp.op, lhs.EncAt(r), ev));
      if (keep) s[kept++] = r;
    }
    s.resize(kept);
    return Status::OK();
  }
  for (uint32_t r : s) {
    MPQ_ASSIGN_OR_RETURN(bool keep,
                         CompareCells(bp.op, lhs.GetCell(r), bp.rhs_const));
    if (keep) s[kept++] = r;
  }
  s.resize(kept);
  return Status::OK();
}

Status FilterAll(const std::vector<BoundPredicate>& preds, const Table& t,
                 SelectionVector* sel) {
  for (const BoundPredicate& bp : preds) {
    if (sel->empty()) return Status::OK();
    MPQ_RETURN_NOT_OK(FilterSelection(bp, t, sel));
  }
  return Status::OK();
}

/// A batch's output columns, merged into the final table in batch order.
using Chunk = std::vector<ColumnData>;

/// An empty chunk whose column reps mirror the actual source columns (not
/// just the metadata), so gathers stay on the typed fast path even for
/// demoted columns.
Chunk ChunkLike(const Table& t) {
  Chunk ch;
  ch.reserve(t.num_columns());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    ch.emplace_back(t.col(c).rep());
  }
  return ch;
}

Chunk ChunkLike(const Table& l, const Table& r) {
  Chunk ch;
  ch.reserve(l.num_columns() + r.num_columns());
  for (size_t c = 0; c < l.num_columns(); ++c) {
    ch.emplace_back(l.col(c).rep());
  }
  for (size_t c = 0; c < r.num_columns(); ++c) {
    ch.emplace_back(r.col(c).rep());
  }
  return ch;
}

Table TableFromColumns(std::vector<ExecColumn> cols,
                       std::vector<ColumnData> data) {
  Table t;
  for (size_t i = 0; i < cols.size(); ++i) {
    t.AddColumn(std::move(cols[i]), std::move(data[i]));
  }
  return t;
}

/// Splices per-batch chunks into a table, stealing chunk buffers (batch
/// order, so results are identical at any thread count).
Table MergeChunks(std::vector<ExecColumn> cols, std::vector<Chunk> chunks) {
  std::vector<ColumnData> data(cols.size());
  bool first = true;
  for (Chunk& ch : chunks) {
    if (ch.empty()) continue;  // batch produced nothing (e.g. no matches)
    if (first) {
      data = std::move(ch);
      first = false;
      continue;
    }
    for (size_t c = 0; c < data.size(); ++c) {
      data[c].MoveAppend(std::move(ch[c]));
    }
  }
  return TableFromColumns(std::move(cols), std::move(data));
}

Result<Table> ExecProject(const PlanNode* n, Table in, ExecContext* ctx) {
  std::vector<int> keep;
  for (size_t i = 0; i < in.num_columns(); ++i) {
    if (n->attrs.Contains(in.columns()[i].attr)) {
      keep.push_back(static_cast<int>(i));
    }
  }
  if (keep.size() != n->attrs.size()) {
    AttrSet missing = n->attrs;
    for (int i : keep) missing.Erase(in.columns()[static_cast<size_t>(i)].attr);
    return ColNotFound(n, missing.ToVector().front(), *ctx->catalog);
  }
  // Pure column movement: no per-row work at all — shared payloads, so a
  // projection over a base scan copies zero cells.
  Table out;
  for (int i : keep) {
    size_t c = static_cast<size_t>(i);
    out.AddColumn(std::move(in.columns()[c]), in.ShareCol(c));
  }
  return out;
}

Result<Table> ExecSelect(const PlanNode* n, Table in, ExecContext* ctx) {
  std::vector<BoundPredicate> preds;
  for (const Predicate& p : n->predicates) {
    MPQ_ASSIGN_OR_RETURN(BoundPredicate bp, BindPredicate(p, in, n, ctx));
    preds.push_back(std::move(bp));
  }
  // Phase 1 (parallel): per-batch selection vectors. With a
  // SharedScanManager attached, concurrent selects over the same column
  // payload coalesce onto one batch-claim loop — each query still runs its
  // own predicates per batch, so coalescing is pure scheduling and the
  // per-batch selection vectors are identical either way.
  std::vector<SelectionVector> sels(in.NumBatches(Grain(ctx)));
  auto fill_batch = [&](size_t batch, size_t begin, size_t end) -> Status {
    SelectionVector& sel = sels[batch];
    sel.resize(end - begin);
    for (size_t r = begin; r < end; ++r) {
      sel[r - begin] = static_cast<uint32_t>(r);
    }
    return FilterAll(preds, in, &sel);
  };
  if (ctx->shared_scans != nullptr && in.num_columns() > 0 &&
      in.num_rows() > 0) {
    if (ctx->op_profile != nullptr) {
      ctx->op_profile->RecordMorsels(OpKind::kSelect, sels.size());
    }
    ctx->op_morsels.fetch_add(sels.size(), std::memory_order_relaxed);
    // The first column's payload pointer identifies the physical table:
    // snapshots share column payloads copy-on-write, so two queries over
    // the same snapshot see the same pointer while a mutated or
    // re-materialized table does not (and correctly scans alone).
    MPQ_RETURN_NOT_OK(ctx->shared_scans->Scan(
        in.ShareCol(0).get(), in.num_rows(), Grain(ctx), fill_batch));
  } else {
    MPQ_RETURN_NOT_OK(RunOpMorsels(
        ctx, OpKind::kSelect, in.num_rows(),
        [&](size_t begin, size_t end) -> Status {
          return fill_batch(begin / Grain(ctx), begin, end);
        }));
  }
  size_t total = 0;
  for (const SelectionVector& sel : sels) total += sel.size();
  if (total == in.num_rows()) return in;  // nothing filtered: reuse columns

  // Phase 2: gather the survivors column-at-a-time, in batch order.
  std::vector<ColumnData> data;
  data.reserve(in.num_columns());
  for (size_t c = 0; c < in.num_columns(); ++c) {
    ColumnData col(in.col(c).rep());
    col.Reserve(total);
    for (const SelectionVector& sel : sels) {
      col.AppendSelected(in.col(c), sel.data(), sel.size());
    }
    data.push_back(std::move(col));
  }
  return TableFromColumns(in.columns(), std::move(data));
}

// ---------------------------------------------------- join/group-by keys ---

/// How one key column folds into the fixed-width code words of the typed
/// hash path.
enum class KeyKind : uint8_t { kI64, kF64, kStr, kEnc, kBytes };

KeyKind KindOf(const ColumnData& c) {
  switch (c.rep()) {
    case ColumnRep::kInt64:
      return KeyKind::kI64;
    case ColumnRep::kDouble:
      return KeyKind::kF64;
    case ColumnRep::kString:
      return KeyKind::kStr;
    case ColumnRep::kEnc:
      return KeyKind::kEnc;
    case ColumnRep::kCell:
      return KeyKind::kBytes;
  }
  return KeyKind::kBytes;
}

/// Probe rows holding a dictionary value the build side never interned are
/// flagged here in the null word; the bit is never set on a build key, so
/// equality always fails without consulting any dictionary twice.
constexpr uint64_t kProbeMissBit = 1ull << 63;

/// Encodes the key columns of a table over a row range as fixed-width code
/// words: one word per column — raw int64/double bits, or a ColumnDict code
/// for string and DET/OPE ciphertext columns — plus a trailing null/miss
/// word when any key column can hold NULLs (or a probe can miss a
/// dictionary). Word-tuple equality reproduces per-column AppendKeyBytes
/// equality (the caller pairs only same-rep columns for joins): NULL
/// matches NULL, doubles compare bitwise, strings/blobs by content via the
/// dictionary. No key byte is ever materialized.
class TypedKeyCodec {
 public:
  /// The typed path covers every rep except the heterogeneous kCell
  /// fallback (and caps key arity so null bits fit one word).
  static bool Eligible(const Table& t, const std::vector<int>& cols) {
    if (cols.size() >= 62) return false;
    for (int c : cols) {
      if (t.col(static_cast<size_t>(c)).rep() == ColumnRep::kCell) {
        return false;
      }
    }
    return true;
  }

  /// `with_null_word` must be set when any key column (of the build or a
  /// probe table) can hold NULLs, or when dictionary probes can miss; an
  /// empty key always keeps the word so rows have nonzero width.
  void Init(const Table& t, const std::vector<int>& cols,
            bool with_null_word) {
    null_word_ = with_null_word || cols.empty();
    cols_.clear();
    kinds_.clear();
    dicts_.clear();
    for (int c : cols) {
      const ColumnData& col = t.col(static_cast<size_t>(c));
      cols_.push_back(&col);
      KeyKind kind = KindOf(col);
      kinds_.push_back(kind);
      dicts_.push_back(kind == KeyKind::kStr || kind == KeyKind::kEnc
                           ? std::make_unique<ColumnDict>(&col)
                           : nullptr);
    }
  }

  /// Words per row: one per key column, plus the null/miss word if present.
  size_t width() const { return cols_.size() + (null_word_ ? 1 : 0); }

  /// Encodes rows [begin, end) of the Init table into `words` (row-major,
  /// width() words per row), interning new dictionary codes — the build
  /// side, which must run sequentially for deterministic codes.
  Status EncodeBuild(size_t begin, size_t end, std::vector<uint64_t>* words,
                     std::vector<uint32_t>* scratch) {
    return Encode(cols_, /*probe=*/false, begin, end, words, scratch);
  }

  /// Probe-mode encoding of another table's columns (pairwise same KeyKind
  /// as the build columns) against the build dictionaries. Read-only: safe
  /// from concurrent probe batches.
  Status EncodeProbe(const Table& t, const std::vector<int>& probe_cols,
                     size_t begin, size_t end, std::vector<uint64_t>* words,
                     std::vector<uint32_t>* scratch) const {
    std::vector<const ColumnData*> cols;
    cols.reserve(probe_cols.size());
    for (int c : probe_cols) cols.push_back(&t.col(static_cast<size_t>(c)));
    return Encode(cols, /*probe=*/true, begin, end, words, scratch);
  }

 private:
  Status Encode(const std::vector<const ColumnData*>& cols, bool probe,
                size_t begin, size_t end, std::vector<uint64_t>* words,
                std::vector<uint32_t>* scratch) const {
    size_t n = end - begin;
    size_t w = width();
    words->assign(n * w, 0);
    uint64_t* out = words->data();
    for (size_t k = 0; k < cols.size(); ++k) {
      const ColumnData& col = *cols[k];
      switch (kinds_[k]) {
        case KeyKind::kI64: {
          const int64_t* v = col.i64().data();
          for (size_t i = 0; i < n; ++i) {
            out[i * w + k] = static_cast<uint64_t>(v[begin + i]);
          }
          break;
        }
        case KeyKind::kF64: {
          const double* v = col.f64().data();
          for (size_t i = 0; i < n; ++i) {
            uint64_t bits;
            std::memcpy(&bits, &v[begin + i], 8);
            out[i * w + k] = bits;
          }
          break;
        }
        case KeyKind::kStr:
        case KeyKind::kEnc: {
          scratch->resize(n);
          uint32_t* codes = scratch->data();
          if (probe) {
            MPQ_RETURN_NOT_OK(dicts_[k]->ProbeRange(col, begin, end, codes));
          } else {
            MPQ_RETURN_NOT_OK(dicts_[k]->EncodeRange(begin, end, codes));
          }
          for (size_t i = 0; i < n; ++i) {
            if (codes[i] == ColumnDict::kMiss) {
              out[i * w + w - 1] |= kProbeMissBit;  // null_word_ is set
            } else {
              out[i * w + k] = codes[i];
            }
          }
          break;
        }
        case KeyKind::kBytes:
          return Status::Internal("typed key codec over a kCell column");
      }
      if (col.has_nulls()) {
        // Init's with_null_word precondition guarantees the word exists.
        for (size_t i = 0; i < n; ++i) {
          if (col.IsNull(begin + i)) {
            out[i * w + k] = 0;
            out[i * w + w - 1] |= 1ull << k;
          }
        }
      }
    }
    return Status::OK();
  }

  bool null_word_ = true;
  std::vector<const ColumnData*> cols_;
  std::vector<KeyKind> kinds_;
  std::vector<std::unique_ptr<ColumnDict>> dicts_;
};

/// Whether the typed codec over `cols` of `t` needs the null/miss word.
bool KeyColsNeedNullWord(const Table& t, const std::vector<int>& cols) {
  for (int c : cols) {
    const ColumnData& col = t.col(static_cast<size_t>(c));
    if (col.has_nulls() || col.rep() == ColumnRep::kString ||
        col.rep() == ColumnRep::kEnc) {
      return true;
    }
  }
  return false;
}

/// Byte-key fallback for heterogeneous kCell columns (and cross-rep join
/// pairs): AppendKeyBytes per column, each component closed by its length
/// — an unambiguous (back-to-front parseable) encoding, so concatenated
/// keys can never alias across column boundaries and byte-key equality is
/// exactly per-column byte equality, the same relation the typed code
/// words implement. Stored in a ByteArena behind a FlatHashIndex instead
/// of per-key std::unordered_map nodes.
Status RowKeyBytes(const Table& t, const std::vector<int>& cols, size_t r,
                   std::string* key) {
  key->clear();
  for (int c : cols) {
    size_t start = key->size();
    MPQ_RETURN_NOT_OK(AppendKeyBytes(t.col(static_cast<size_t>(c)), r, key));
    auto len = static_cast<uint32_t>(key->size() - start);
    key->append(reinterpret_cast<const char*>(&len), sizeof(len));
  }
  return Status::OK();
}

std::vector<ExecColumn> ConcatColumns(const Table& l, const Table& r) {
  std::vector<ExecColumn> cols = l.columns();
  cols.insert(cols.end(), r.columns().begin(), r.columns().end());
  return cols;
}

/// Gathers the (left, right) row pairs `(li[k], ri[k])` into a chunk over
/// the concatenated layout.
Chunk GatherPairs(const Table& l, const Table& r, const SelectionVector& li,
                  const SelectionVector& ri) {
  Chunk ch = ChunkLike(l, r);
  for (size_t c = 0; c < l.num_columns(); ++c) {
    ch[c].Reserve(li.size());
    ch[c].AppendSelected(l.col(c), li.data(), li.size());
  }
  for (size_t c = 0; c < r.num_columns(); ++c) {
    ch[l.num_columns() + c].Reserve(ri.size());
    ch[l.num_columns() + c].AppendSelected(r.col(c), ri.data(), ri.size());
  }
  return ch;
}

/// Filters a chunk over `out_cols` by `preds`, rebuilding it only when rows
/// were dropped.
Result<Chunk> FilterChunk(Chunk ch, const std::vector<ExecColumn>& out_cols,
                          const std::vector<BoundPredicate>& preds) {
  if (preds.empty() || ch.empty()) return ch;
  Table probe = TableFromColumns(out_cols, std::move(ch));
  SelectionVector sel(probe.num_rows());
  for (size_t i = 0; i < sel.size(); ++i) sel[i] = static_cast<uint32_t>(i);
  MPQ_RETURN_NOT_OK(FilterAll(preds, probe, &sel));
  Chunk out = ChunkLike(probe);
  for (size_t c = 0; c < probe.num_columns(); ++c) {
    if (sel.size() == probe.num_rows()) {
      out[c] = std::move(probe.col_mut(c));
    } else {
      out[c].Reserve(sel.size());
      out[c].AppendSelected(probe.col(c), sel.data(), sel.size());
    }
  }
  return out;
}

Result<Table> ExecCartesian(const PlanNode*, Table l, Table r,
                            ExecContext* ctx) {
  std::vector<ExecColumn> out_cols = ConcatColumns(l, r);
  std::vector<Chunk> chunks(l.NumBatches(Grain(ctx)));
  MPQ_RETURN_NOT_OK(RunOpMorsels(
      ctx, OpKind::kCartesian, l.num_rows(),
      [&](size_t begin, size_t end) -> Status {
        Chunk& ch = chunks[begin / Grain(ctx)];
        ch = ChunkLike(l, r);
        size_t rows = (end - begin) * r.num_rows();
        for (ColumnData& col : ch) col.Reserve(rows);
        for (size_t c = 0; c < l.num_columns(); ++c) {
          for (size_t i = begin; i < end; ++i) {
            ch[c].AppendRepeated(l.col(c), i, r.num_rows());
          }
        }
        for (size_t c = 0; c < r.num_columns(); ++c) {
          for (size_t i = begin; i < end; ++i) {
            ch[l.num_columns() + c].AppendRange(r.col(c), 0, r.num_rows());
          }
        }
        return Status::OK();
      }));
  return MergeChunks(std::move(out_cols), std::move(chunks));
}

Result<Table> ExecJoinInMemory(const PlanNode* n, Table l, Table r,
                               ExecContext* ctx) {
  // Partition predicates into hashable equi-predicates (left attr vs right
  // attr) and residual ones.
  struct EqPair {
    int lcol;
    int rcol;
  };
  std::vector<EqPair> eq_pairs;
  std::vector<Predicate> residual;
  for (const Predicate& p : n->predicates) {
    if (p.rhs_is_attr && p.op == CmpOp::kEq) {
      int ll = l.ColIndex(p.lhs), rr = r.ColIndex(p.rhs_attr);
      if (ll >= 0 && rr >= 0) {
        eq_pairs.push_back({ll, rr});
        continue;
      }
      ll = l.ColIndex(p.rhs_attr);
      rr = r.ColIndex(p.lhs);
      if (ll >= 0 && rr >= 0) {
        eq_pairs.push_back({ll, rr});
        continue;
      }
    }
    residual.push_back(p);
  }

  std::vector<ExecColumn> out_cols = ConcatColumns(l, r);
  // Residual predicates bind against the concatenated layout; a zero-row
  // probe table of that layout carries the binding metadata.
  Table layout = TableFromColumns(out_cols, ChunkLike(l, r));
  std::vector<BoundPredicate> bound;
  for (const Predicate& p : eq_pairs.empty() ? n->predicates : residual) {
    MPQ_ASSIGN_OR_RETURN(BoundPredicate bp, BindPredicate(p, layout, n, ctx));
    bound.push_back(std::move(bp));
  }

  if (!eq_pairs.empty()) {
    // Hash join on the flat-hash engine: a sequential build over the
    // (usually smaller) left side assigns every row a dense key id — via
    // fixed-width typed code words when every key-column pair shares a
    // typed rep, byte keys in a ByteArena otherwise — then row lists per
    // key id are laid out CSR-style and a batch-parallel probe over the
    // right side emits (left, right) pairs in the historical order
    // (ascending left row within ascending right row).
    std::vector<int> lcols, rcols;
    for (const EqPair& ep : eq_pairs) {
      lcols.push_back(ep.lcol);
      rcols.push_back(ep.rcol);
    }
    bool typed =
        TypedKeyCodec::Eligible(l, lcols) && TypedKeyCodec::Eligible(r, rcols);
    if (typed) {
      for (size_t k = 0; k < lcols.size(); ++k) {
        if (KindOf(l.col(static_cast<size_t>(lcols[k]))) !=
            KindOf(r.col(static_cast<size_t>(rcols[k])))) {
          // Cross-rep pairs (say int64 vs double) only ever match on NULLs
          // under byte-key semantics; the byte path preserves that.
          typed = false;
          break;
        }
      }
    }

    // Build state: typed keys live as width() words per key id in
    // `key_words`; byte keys live in the arena addressed by (offset, size)
    // spans.
    FlatHashIndex index(l.num_rows());
    std::vector<uint64_t> key_words;
    ByteArena arena;
    std::vector<std::pair<uint64_t, uint32_t>> spans;
    std::vector<uint32_t> gids(l.num_rows());
    TypedKeyCodec codec;
    size_t width = 0;
    if (typed) {
      codec.Init(l, lcols, KeyColsNeedNullWord(l, lcols) ||
                               KeyColsNeedNullWord(r, rcols));
      width = codec.width();
      std::vector<uint64_t> words;
      std::vector<uint32_t> scratch;
      for (size_t begin = 0; begin < l.num_rows(); begin += Grain(ctx)) {
        size_t end = std::min(begin + Grain(ctx), l.num_rows());
        MPQ_RETURN_NOT_OK(codec.EncodeBuild(begin, end, &words, &scratch));
        for (size_t i = begin; i < end; ++i) {
          const uint64_t* row = words.data() + (i - begin) * width;
          gids[i] = index.FindOrInsert(
              HashWords(row, width),
              [&](uint32_t id) {
                return std::memcmp(key_words.data() + id * width, row,
                                   width * 8) == 0;
              },
              [&] {
                auto id = static_cast<uint32_t>(key_words.size() / width);
                key_words.insert(key_words.end(), row, row + width);
                return id;
              });
        }
      }
    } else {
      std::string key;
      for (size_t i = 0; i < l.num_rows(); ++i) {
        MPQ_RETURN_NOT_OK(RowKeyBytes(l, lcols, i, &key));
        gids[i] = index.FindOrInsert(
            HashBytes(key.data(), key.size()),
            [&](uint32_t id) {
              return arena.View(spans[id].first, spans[id].second) == key;
            },
            [&] {
              spans.emplace_back(arena.Append(key.data(), key.size()),
                                 static_cast<uint32_t>(key.size()));
              return static_cast<uint32_t>(spans.size() - 1);
            });
      }
    }
    // CSR row lists: the rows of each key id, ascending (build order).
    size_t num_keys = index.size();
    std::vector<uint32_t> offsets(num_keys + 1, 0);
    for (uint32_t g : gids) offsets[g + 1]++;
    for (size_t g = 1; g <= num_keys; ++g) offsets[g] += offsets[g - 1];
    std::vector<uint32_t> rows(l.num_rows());
    {
      std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
      for (size_t i = 0; i < l.num_rows(); ++i) {
        rows[cursor[gids[i]]++] = static_cast<uint32_t>(i);
      }
    }

    std::vector<Chunk> chunks(r.NumBatches(Grain(ctx)));
    MPQ_RETURN_NOT_OK(RunOpMorsels(
        ctx, OpKind::kJoin, r.num_rows(),
        [&](size_t begin, size_t end) -> Status {
          SelectionVector li, ri;
          auto emit = [&](uint32_t g, size_t j) {
            for (uint32_t k = offsets[g]; k < offsets[g + 1]; ++k) {
              li.push_back(rows[k]);
              ri.push_back(static_cast<uint32_t>(j));
            }
          };
          if (typed) {
            std::vector<uint64_t> words;
            std::vector<uint32_t> scratch;
            MPQ_RETURN_NOT_OK(
                codec.EncodeProbe(r, rcols, begin, end, &words, &scratch));
            // Without the null/miss word the last word holds raw key bits
            // (which may legitimately have bit 63 set, e.g. negative
            // int64); a dictionary miss forces the word to exist.
            bool miss_word = width > rcols.size();
            for (size_t j = begin; j < end; ++j) {
              const uint64_t* row = words.data() + (j - begin) * width;
              if (miss_word && (row[width - 1] & kProbeMissBit)) continue;
              uint32_t g =
                  index.Find(HashWords(row, width), [&](uint32_t id) {
                    return std::memcmp(key_words.data() + id * width, row,
                                       width * 8) == 0;
                  });
              if (g != FlatHashIndex::kNotFound) emit(g, j);
            }
          } else {
            std::string key;
            for (size_t j = begin; j < end; ++j) {
              MPQ_RETURN_NOT_OK(RowKeyBytes(r, rcols, j, &key));
              uint32_t g = index.Find(
                  HashBytes(key.data(), key.size()), [&](uint32_t id) {
                    return arena.View(spans[id].first, spans[id].second) ==
                           key;
                  });
              if (g != FlatHashIndex::kNotFound) emit(g, j);
            }
          }
          MPQ_ASSIGN_OR_RETURN(
              chunks[begin / Grain(ctx)],
              FilterChunk(GatherPairs(l, r, li, ri), out_cols, bound));
          return Status::OK();
        }));
    return MergeChunks(std::move(out_cols), std::move(chunks));
  }

  // Nested-loop fallback (non-equi joins), parallel over left-side batches.
  // Pairs are evaluated cell-at-a-time and only the matches are gathered,
  // so the cross product is never materialized.
  auto pair_cell = [&](int col, size_t i, size_t j) {
    size_t c = static_cast<size_t>(col);
    return c < l.num_columns() ? l.col(c).GetCell(i)
                               : r.col(c - l.num_columns()).GetCell(j);
  };
  std::vector<Chunk> chunks(l.NumBatches(Grain(ctx)));
  MPQ_RETURN_NOT_OK(RunOpMorsels(
      ctx, OpKind::kJoin, l.num_rows(),
      [&](size_t begin, size_t end) -> Status {
        SelectionVector li, ri;
        for (size_t i = begin; i < end; ++i) {
          for (size_t j = 0; j < r.num_rows(); ++j) {
            bool keep = true;
            for (const BoundPredicate& bp : bound) {
              Cell lhs = pair_cell(bp.lhs_col, i, j);
              Cell rhs = bp.rhs_col >= 0 ? pair_cell(bp.rhs_col, i, j)
                                         : bp.rhs_const;
              MPQ_ASSIGN_OR_RETURN(keep, CompareCells(bp.op, lhs, rhs));
              if (!keep) break;
            }
            if (keep) {
              li.push_back(static_cast<uint32_t>(i));
              ri.push_back(static_cast<uint32_t>(j));
            }
          }
        }
        chunks[begin / Grain(ctx)] = GatherPairs(l, r, li, ri);
        return Status::OK();
      }));
  return MergeChunks(std::move(out_cols), std::move(chunks));
}

// ------------------------------------------------- out-of-core execution ---

/// Partition fan-out of one spill generation. Eight keeps partition counts
/// (and open files) small while shrinking a generation's working set 8x.
constexpr size_t kSpillFanout = 8;
/// Recursion bound: after this many generations a partition runs in memory
/// regardless of the budget (a single over-represented key never shrinks).
constexpr int kMaxSpillDepth = 4;

/// Raises the generation high-water mark (diagnostic counter only).
void NoteSpillGeneration(ExecContext* ctx, uint64_t gen) {
  uint64_t cur = ctx->spill_generations.load(std::memory_order_relaxed);
  while (cur < gen && !ctx->spill_generations.compare_exchange_weak(
                          cur, gen, std::memory_order_relaxed)) {
  }
}

/// A fresh spill file path under ctx->spill_dir (or the system temp dir).
std::string NextSpillPath(ExecContext* ctx) {
  static std::atomic<uint64_t> counter{0};
  std::filesystem::path dir = ctx->spill_dir.empty()
                                  ? std::filesystem::temp_directory_path()
                                  : std::filesystem::path(ctx->spill_dir);
  return (dir / StrFormat("mpq_spill_%d_%llu.seg", static_cast<int>(getpid()),
                          static_cast<unsigned long long>(counter.fetch_add(
                              1, std::memory_order_relaxed))))
      .string();
}

Status WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal(StrFormat("cannot open spill file %s",
                                      path.c_str()));
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    return Status::Internal(StrFormat("short write to spill file %s",
                                      path.c_str()));
  }
  return Status::OK();
}

/// Reads a spill file back and deletes it (each partition is read once),
/// decoding on the context's scheduler.
Result<Table> ReadSpillSegment(const std::string& path, ExecContext* ctx) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Internal(StrFormat("cannot open spill file %s",
                                      path.c_str()));
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::error_code ec;
  std::filesystem::remove(path, ec);  // best effort
  MPQ_ASSIGN_OR_RETURN(SegmentReader sr,
                       SegmentReader::Open(std::move(bytes), ctx->morsels));
  return sr.Decode(ctx->morsels);
}

/// Appends a plain int64 global-row column to `t` (rows 0..n-1). Spilled
/// partitions carry it so results can be restored to the in-memory output
/// order (and group-by can reconstruct global batch boundaries); it never
/// collides with a real attribute.
void AppendRowIdColumn(Table* t) {
  ExecColumn col;
  col.attr = kInvalidAttr;
  col.name = "__spill_row";
  col.type = DataType::kInt64;
  ColumnData d(ColumnRep::kInt64);
  d.Reserve(t->num_rows());
  for (size_t i = 0; i < t->num_rows(); ++i) {
    d.AppendValue(Value(static_cast<int64_t>(i)));
  }
  t->AddColumn(std::move(col), std::move(d));
}

/// Splits `t` into kSpillFanout partitions by salted key-byte hash (equal
/// keys co-partition; the salt decorrelates recursive generations), writing
/// each as one compressed segment file. Partitions are written in order,
/// each encoded on the context's scheduler; deterministic.
Result<std::vector<std::string>> SpillPartitionTable(
    const Table& t, const std::vector<int>& key_cols, uint64_t salt,
    ExecContext* ctx) {
  std::vector<SelectionVector> sels(kSpillFanout);
  std::string key;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    MPQ_RETURN_NOT_OK(RowKeyBytes(t, key_cols, r, &key));
    uint64_t h = SplitMix64(HashBytes(key.data(), key.size()) ^ salt);
    sels[h % kSpillFanout].push_back(static_cast<uint32_t>(r));
  }
  std::vector<std::string> paths(kSpillFanout);
  for (size_t p = 0; p < kSpillFanout; ++p) {
    Table part;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      ColumnData d(t.col(c).rep());
      d.Reserve(sels[p].size());
      d.AppendSelected(t.col(c), sels[p].data(), sels[p].size());
      part.AddColumn(t.columns()[c], std::move(d));
    }
    MPQ_ASSIGN_OR_RETURN(std::string bytes, EncodeSegment(part, ctx->morsels));
    paths[p] = NextSpillPath(ctx);
    MPQ_RETURN_NOT_OK(WriteFileBytes(paths[p], bytes));
    ctx->spill_partitions.fetch_add(1, std::memory_order_relaxed);
    ctx->spill_bytes.fetch_add(bytes.size(), std::memory_order_relaxed);
  }
  return paths;
}

/// One spill generation of the partitioned hash join: both (row-id
/// augmented) sides are hash-partitioned on the join key and written to
/// disk, then each partition pair is joined — recursively when it still
/// exceeds the budget — and the outputs are concatenated. Row order within
/// the concatenation is arbitrary; the wrapper restores the in-memory order
/// from the row-id columns.
Result<Table> ExecJoinPartitioned(const PlanNode* n, Table l, Table r,
                                  const std::vector<int>& lcols,
                                  const std::vector<int>& rcols,
                                  ExecContext* ctx, int depth, uint64_t salt) {
  NoteSpillGeneration(ctx, static_cast<uint64_t>(depth) + 1);
  std::vector<ExecColumn> out_cols = ConcatColumns(l, r);
  Chunk empty_like = ChunkLike(l, r);
  MPQ_ASSIGN_OR_RETURN(std::vector<std::string> lpaths,
                       SpillPartitionTable(l, lcols, salt, ctx));
  MPQ_ASSIGN_OR_RETURN(std::vector<std::string> rpaths,
                       SpillPartitionTable(r, rcols, salt, ctx));
  l = Table();
  r = Table();
  std::vector<Chunk> chunks;
  for (size_t p = 0; p < kSpillFanout; ++p) {
    MPQ_ASSIGN_OR_RETURN(Table lp, ReadSpillSegment(lpaths[p], ctx));
    MPQ_ASSIGN_OR_RETURN(Table rp, ReadSpillSegment(rpaths[p], ctx));
    if (lp.num_rows() == 0 || rp.num_rows() == 0) continue;
    Result<Table> joined =
        depth + 1 < kMaxSpillDepth &&
                lp.ByteSize() + rp.ByteSize() > ctx->memory_budget
            ? ExecJoinPartitioned(n, std::move(lp), std::move(rp), lcols,
                                  rcols, ctx, depth + 1,
                                  SplitMix64(salt + p + 1))
            : ExecJoinInMemory(n, std::move(lp), std::move(rp), ctx);
    MPQ_RETURN_NOT_OK(joined.status());
    if (joined->num_rows() == 0) continue;
    Chunk ch;
    ch.reserve(joined->num_columns());
    for (size_t c = 0; c < joined->num_columns(); ++c) {
      ch.push_back(std::move(joined->col_mut(c)));
    }
    chunks.push_back(std::move(ch));
  }
  if (chunks.empty()) {
    return TableFromColumns(std::move(out_cols), std::move(empty_like));
  }
  return MergeChunks(std::move(out_cols), std::move(chunks));
}

Result<Table> ExecJoin(const PlanNode* n, Table l, Table r, ExecContext* ctx) {
  bool spill = ctx->memory_budget != 0 && l.num_rows() > 0 &&
               r.num_rows() > 0 &&
               l.ByteSize() + r.ByteSize() > ctx->memory_budget;
  std::vector<int> lcols, rcols;
  if (spill) {
    // The spill path partitions on the equi-join key; without one (pure
    // theta join) the nested-loop path cannot partition and runs in memory.
    for (const Predicate& p : n->predicates) {
      if (!p.rhs_is_attr || p.op != CmpOp::kEq) continue;
      int ll = l.ColIndex(p.lhs), rr = r.ColIndex(p.rhs_attr);
      if (ll < 0 || rr < 0) {
        ll = l.ColIndex(p.rhs_attr);
        rr = r.ColIndex(p.lhs);
      }
      if (ll >= 0 && rr >= 0) {
        lcols.push_back(ll);
        rcols.push_back(rr);
      }
    }
    spill = !lcols.empty();
  }
  if (!spill) return ExecJoinInMemory(n, std::move(l), std::move(r), ctx);

  size_t ln = l.num_columns(), rn = r.num_columns();
  std::vector<ExecColumn> final_cols = ConcatColumns(l, r);
  AppendRowIdColumn(&l);
  AppendRowIdColumn(&r);
  MPQ_ASSIGN_OR_RETURN(
      Table joined,
      ExecJoinPartitioned(n, std::move(l), std::move(r), lcols, rcols, ctx,
                          /*depth=*/0, /*salt=*/0x9e3779b97f4a7c15ull));
  // Restore the in-memory emit order — ascending (right row, left row);
  // every match pair is emitted by exactly one partition pair, so the
  // sorted outputs are bit-identical to the unspilled join.
  const ColumnData& lrow = joined.col(ln);
  const ColumnData& rrow = joined.col(ln + 1 + rn);
  std::vector<uint32_t> perm(joined.num_rows());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<uint32_t>(i);
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    if (rrow.i64()[a] != rrow.i64()[b]) return rrow.i64()[a] < rrow.i64()[b];
    return lrow.i64()[a] < lrow.i64()[b];
  });
  Table out;
  for (size_t c = 0; c < final_cols.size(); ++c) {
    size_t src = c < ln ? c : c + 1;  // skip the left row-id column
    ColumnData d(joined.col(src).rep());
    d.Reserve(perm.size());
    d.AppendSelected(joined.col(src), perm.data(), perm.size());
    out.AddColumn(std::move(final_cols[c]), std::move(d));
  }
  return out;
}

/// Aggregation state for one (group, aggregate) pair. Min/max and the
/// Paillier template are tracked as row indices into the operand table
/// (materialized only when the output is built). Trivially copyable, so
/// group states pack into one contiguous arena per batch (stride = number
/// of aggregates) instead of a vector-of-vectors.
struct AggState {
  // Plaintext accumulators.
  double sum = 0;
  bool sum_is_double = false;
  int64_t count = 0;
  size_t best_row = 0;  // current min/max row in the operand table
  bool has_min_max = false;
  // Homomorphic accumulator. On the lazy path (contiguous-ciphertext
  // columns) `hom_cipher` stays zero through phases 1 and 2 — row indices
  // are staged per group instead — and is written exactly once at finalize;
  // the eager kCell fallback folds into it per row as before.
  bool hom = false;
  uint128 hom_cipher = 0;
  /// Fold codec of the ciphertexts' public modulus (owned by the operator
  /// frame; set with `hom`).
  const ColumnCodec* hom_codec = nullptr;
  int64_t hom_count = 0;
  size_t hom_template_row = 0;
};

/// Fold-only codecs per key id, built once per group-by operator from the
/// public moduli so neither the per-row eager fold nor the per-group lazy
/// fold ever re-derives Montgomery reduction constants.
using HomCodecMap = std::unordered_map<uint64_t, ColumnCodec>;

/// Three-way min/max comparison of operand rows `i` vs `j` of `col`,
/// matching CompareCells semantics (strictly-better keeps first occurrence).
Result<bool> RowBetter(const ColumnData& col, CmpOp op, size_t i, size_t j) {
  if (PlainTypedRep(col.rep())) {
    return ApplyCmp(op, CmpPlainRows(col, i, col, j));
  }
  if (col.rep() == ColumnRep::kEnc && !col.IsNull(i) && !col.IsNull(j)) {
    return CompareEnc(op, col.EncAt(i), col.EncAt(j));
  }
  return CompareCells(op, col.GetCell(i), col.GetCell(j));
}

/// Folds operand row `r` of `col` into `s` for `agg`, column-at-a-time.
Status AccumulateRow(const PlanNode* n, const Aggregate& agg,
                     const ColumnData& col, size_t r,
                     const HomCodecMap& hom_codecs, AggState* s) {
  switch (agg.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      s->count++;
      return Status::OK();
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      if (col.IsNull(r)) return Status::OK();
      switch (col.rep()) {
        case ColumnRep::kInt64:
          s->sum += static_cast<double>(col.i64()[r]);
          s->count++;
          return Status::OK();
        case ColumnRep::kDouble:
          s->sum += col.f64()[r];
          s->sum_is_double = true;
          s->count++;
          return Status::OK();
        case ColumnRep::kString:
          return Status::Unsupported(StrFormat(
              "node %d: %s over a string column", n->id,
              AggFuncName(agg.func)));
        case ColumnRep::kCell: {
          const Cell& cell = col.cells()[r];
          if (cell.is_plain()) {
            const Value& v = cell.plain();
            if (v.is_null()) return Status::OK();
            if (v.is_string()) {
              return Status::Unsupported(StrFormat(
                  "node %d: %s over a string column", n->id,
                  AggFuncName(agg.func)));
            }
            s->sum += v.AsDouble();
            if (v.is_double()) s->sum_is_double = true;
            s->count++;
            return Status::OK();
          }
          break;  // ciphertext cell: fall through to the Paillier path
        }
        case ColumnRep::kEnc:
          break;
      }
      EncView ev = col.EncAt(r);
      if (ev.scheme != EncScheme::kPaillier) {
        return Status::Unsupported(StrFormat(
            "node %d: %s over %s ciphertext requires the HOM scheme", n->id,
            AggFuncName(agg.func), EncSchemeName(ev.scheme)));
      }
      auto pm = hom_codecs.find(ev.key_id);
      if (pm == hom_codecs.end()) {
        return Status::NotFound(StrFormat(
            "node %d: no public modulus for key %llu", n->id,
            static_cast<unsigned long long>(ev.key_id)));
      }
      MPQ_ASSIGN_OR_RETURN(uint128 c, PaillierCipherFromBytes(ev.blob));
      if (!s->hom) {
        s->hom = true;
        s->hom_cipher = c;
        s->hom_codec = &pm->second;
        s->hom_template_row = r;
      } else {
        s->hom_cipher = s->hom_codec->HomAdd(s->hom_cipher, c);
      }
      s->hom_count += ev.aux;
      return Status::OK();
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      bool better;
      if (!s->has_min_max) {
        better = true;
      } else {
        CmpOp op = agg.func == AggFunc::kMin ? CmpOp::kLt : CmpOp::kGt;
        MPQ_ASSIGN_OR_RETURN(better, RowBetter(col, op, r, s->best_row));
      }
      if (better) {
        s->best_row = r;
        s->has_min_max = true;
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable aggregate function");
}

/// Folds a later batch's state `src` into `dst`. Merging in batch order keeps
/// first-occurrence semantics (hom template, min/max tie-breaks) identical to
/// a sequential row scan over the same batch partition.
Status MergeAggState(const Aggregate& agg, const ColumnData* col,
                     bool lazy_hom, const AggState& src, AggState* dst) {
  switch (agg.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      dst->count += src.count;
      return Status::OK();
    case AggFunc::kSum:
    case AggFunc::kAvg:
      dst->sum += src.sum;
      dst->sum_is_double = dst->sum_is_double || src.sum_is_double;
      dst->count += src.count;
      if (src.hom) {
        if (!dst->hom) {
          dst->hom = true;
          dst->hom_cipher = src.hom_cipher;
          dst->hom_codec = src.hom_codec;
          dst->hom_template_row = src.hom_template_row;
        } else if (!lazy_hom) {
          // Lazy aggregates carry no per-batch partial cipher to combine:
          // their rows are staged and folded once at finalize.
          dst->hom_cipher =
              dst->hom_codec->HomAdd(dst->hom_cipher, src.hom_cipher);
        }
        dst->hom_count += src.hom_count;
      }
      return Status::OK();
    case AggFunc::kMin:
    case AggFunc::kMax: {
      if (!src.has_min_max) return Status::OK();
      bool better;
      if (!dst->has_min_max) {
        better = true;
      } else {
        CmpOp op = agg.func == AggFunc::kMin ? CmpOp::kLt : CmpOp::kGt;
        MPQ_ASSIGN_OR_RETURN(
            better, RowBetter(*col, op, src.best_row, dst->best_row));
      }
      if (better) {
        dst->best_row = src.best_row;
        dst->has_min_max = true;
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable aggregate function");
}

/// Hash-aggregated groups of one batch, in first-occurrence order. Group
/// keys are remembered as the global row index of their first occurrence
/// plus, on the typed path, the group's code words (directly mergeable
/// across batches when no batch-local dictionary is involved); states are
/// one contiguous arena, `num_aggs` entries per group.
struct BatchGroups {
  std::vector<size_t> first_row;
  std::vector<uint64_t> key_words;  ///< typed path: width words per group
  std::vector<AggState> states;
  /// Lazy homomorphic staging, one slot per lazy (kEnc-summed) aggregate:
  /// the batch's ciphertext row indices and their batch-local group ids,
  /// appended in row order. Nothing is folded until finalize.
  std::vector<std::vector<uint32_t>> hom_rows;
  std::vector<std::vector<uint32_t>> hom_gids;
};

/// Group-by output schema bound against the operand: group key column
/// indices, aggregate source columns (-1 for count(*)), and the output
/// column metadata — shared by the in-memory and spilled paths so both
/// produce identical layouts.
struct GroupBySchema {
  std::vector<int> group_cols;
  std::vector<int> agg_cols;
  std::vector<ExecColumn> out_cols;
};

Result<GroupBySchema> BindGroupBy(const PlanNode* n, const Table& in,
                                  ExecContext* ctx) {
  GroupBySchema s;
  std::vector<AttrId> group_attrs = n->group_by.ToVector();
  for (AttrId a : group_attrs) {
    int idx = in.ColIndex(a);
    if (idx < 0) return ColNotFound(n, a, *ctx->catalog);
    s.group_cols.push_back(idx);
    s.out_cols.push_back(in.columns()[static_cast<size_t>(idx)]);
  }

  for (const Aggregate& agg : n->aggregates) {
    ExecColumn col;
    if (agg.func == AggFunc::kCountStar) {
      s.agg_cols.push_back(-1);
      col.attr = agg.out_attr;
      col.name = ctx->catalog->attrs().Name(agg.out_attr);
      col.type = DataType::kInt64;
      s.out_cols.push_back(col);
      continue;
    }
    int idx = in.ColIndex(agg.attr);
    if (idx < 0) return ColNotFound(n, agg.attr, *ctx->catalog);
    s.agg_cols.push_back(idx);
    const ExecColumn& src = in.columns()[static_cast<size_t>(idx)];
    col = src;
    col.attr = agg.out_attr;
    col.name = ctx->catalog->attrs().Name(agg.out_attr);
    switch (agg.func) {
      case AggFunc::kCount:
        col.type = DataType::kInt64;
        col.encrypted = false;
        break;
      case AggFunc::kAvg:
        if (src.encrypted) {
          col.hom_avg = true;  // Paillier sum + aux count
        } else {
          col.type = DataType::kDouble;
        }
        break;
      default:
        break;  // sum/min/max keep the source representation
    }
    s.out_cols.push_back(col);
  }
  return s;
}

/// Resolves the fold codecs for homomorphic sums (one per public modulus)
/// and, when `lazy_slot` is given, assigns a lazy staging slot to each
/// contiguous-ciphertext (kEnc) summed aggregate. Plaintext group-bys never
/// pay the setup.
HomCodecMap HomCodecsFor(const PlanNode* n, const Table& in,
                         const std::vector<int>& agg_cols, ExecContext* ctx,
                         std::vector<int>* lazy_slot, size_t* num_lazy) {
  size_t num_aggs = n->aggregates.size();
  HomCodecMap hom_codecs;
  if (lazy_slot != nullptr) lazy_slot->assign(num_aggs, -1);
  if (num_lazy != nullptr) *num_lazy = 0;
  for (size_t ai = 0; ai < num_aggs; ++ai) {
    const Aggregate& agg = n->aggregates[ai];
    if (agg.func != AggFunc::kSum && agg.func != AggFunc::kAvg) continue;
    if (agg_cols[ai] < 0) continue;
    ColumnRep rep = in.col(static_cast<size_t>(agg_cols[ai])).rep();
    if (rep != ColumnRep::kEnc && rep != ColumnRep::kCell) continue;
    if (hom_codecs.empty() && ctx->public_modulus != nullptr) {
      for (const auto& [key_id, modulus] : *ctx->public_modulus) {
        hom_codecs.emplace(key_id, ColumnCodec(key_id, modulus));
      }
    }
    if (rep == ColumnRep::kEnc && lazy_slot != nullptr &&
        num_lazy != nullptr) {
      (*lazy_slot)[ai] = static_cast<int>((*num_lazy)++);
    }
  }
  return hom_codecs;
}

/// Materializes one finished aggregate state as its output cell. `col` is
/// the aggregate's source column (holding `best_row`/`hom_template_row`),
/// null for count(*). Shared by the in-memory and spilled paths.
Result<Cell> AggOutputCell(const Aggregate& agg, const AggState& s,
                           const ColumnData* col) {
  switch (agg.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Cell(Value(s.count));
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      if (s.hom) {
        EncValue ev = col->EncAt(s.hom_template_row).ToValue();
        ev.blob = PaillierCipherToBytes(s.hom_cipher);
        ev.aux = s.hom_count;
        return Cell(std::move(ev));
      }
      if (agg.func == AggFunc::kAvg) {
        return Cell(Value(
            s.count > 0 ? s.sum / static_cast<double>(s.count) : 0.0));
      }
      if (s.sum_is_double) return Cell(Value(s.sum));
      return Cell(Value(static_cast<int64_t>(std::llround(s.sum))));
    }
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (s.has_min_max) return col->GetCell(s.best_row);
      return Cell(Value::Null());
  }
  return Status::Internal("unreachable aggregate function");
}

Result<Table> ExecGroupByInMemory(const PlanNode* n, Table in,
                                  ExecContext* ctx) {
  MPQ_ASSIGN_OR_RETURN(GroupBySchema schema, BindGroupBy(n, in, ctx));
  std::vector<int>& group_cols = schema.group_cols;
  std::vector<int>& agg_cols = schema.agg_cols;
  std::vector<ExecColumn>& out_cols = schema.out_cols;

  // Fold codecs for homomorphic sums, resolved up front so neither the
  // parallel phase nor finalize re-derives Montgomery constants.
  // Contiguous-ciphertext (kEnc) aggregates fold *lazily*: phase 1 only
  // stages row indices per group, and finalize multiplies each group's
  // ciphertexts in one batch accumulation, touching every ciphertext
  // exactly once. The kCell fallback keeps the eager per-row fold.
  size_t num_aggs = n->aggregates.size();
  std::vector<int> lazy_slot;
  size_t num_lazy = 0;
  HomCodecMap hom_codecs =
      HomCodecsFor(n, in, agg_cols, ctx, &lazy_slot, &num_lazy);

  // Typed vs byte keys is a whole-operator decision (a single table, so
  // reps cannot mismatch; only the kCell fallback forces byte keys). When
  // no key column needs a dictionary, code words are raw value bits —
  // comparable across batches, so the merge phase can skip byte keys too.
  bool typed = TypedKeyCodec::Eligible(in, group_cols);
  bool dict_keys = false;
  bool null_word = group_cols.empty();
  for (int gc : group_cols) {
    const ColumnData& col = in.col(static_cast<size_t>(gc));
    dict_keys = dict_keys || col.rep() == ColumnRep::kString ||
                col.rep() == ColumnRep::kEnc;
    null_word = null_word || col.has_nulls();
  }

  // Phase 1: each batch hash-aggregates its rows into private groups. Group
  // ids come from a batch-local flat-hash table over fixed-width key codes
  // (typed path) or arena-backed byte keys; each aggregate then folds its
  // own column into the contiguous state arena.
  std::vector<BatchGroups> batches(in.NumBatches(Grain(ctx)));
  MPQ_RETURN_NOT_OK(RunOpMorsels(
      ctx, OpKind::kGroupBy, in.num_rows(),
      [&](size_t begin, size_t end) -> Status {
        BatchGroups& bg = batches[begin / Grain(ctx)];
        bg.hom_rows.resize(num_lazy);
        bg.hom_gids.resize(num_lazy);
        std::vector<uint32_t> gid(end - begin);
        // Sized for the all-distinct worst case up front: a high-cardinality
        // batch never pays a mid-stream rehash.
        FlatHashIndex index(end - begin);
        if (typed) {
          TypedKeyCodec codec;
          codec.Init(in, group_cols, null_word);
          size_t w = codec.width();
          std::vector<uint64_t> words;
          std::vector<uint32_t> scratch;
          MPQ_RETURN_NOT_OK(codec.EncodeBuild(begin, end, &words, &scratch));
          for (size_t r = begin; r < end; ++r) {
            const uint64_t* row = words.data() + (r - begin) * w;
            gid[r - begin] = index.FindOrInsert(
                HashWords(row, w),
                [&](uint32_t id) {
                  return std::memcmp(bg.key_words.data() + id * w, row,
                                     w * 8) == 0;
                },
                [&] {
                  auto id = static_cast<uint32_t>(bg.first_row.size());
                  bg.key_words.insert(bg.key_words.end(), row, row + w);
                  bg.first_row.push_back(r);
                  bg.states.resize(bg.states.size() + num_aggs);
                  return id;
                });
          }
        } else {
          ByteArena arena;
          std::vector<std::pair<uint64_t, uint32_t>> spans;
          std::string key;
          for (size_t r = begin; r < end; ++r) {
            MPQ_RETURN_NOT_OK(RowKeyBytes(in, group_cols, r, &key));
            gid[r - begin] = index.FindOrInsert(
                HashBytes(key.data(), key.size()),
                [&](uint32_t id) {
                  return arena.View(spans[id].first, spans[id].second) == key;
                },
                [&] {
                  auto id = static_cast<uint32_t>(bg.first_row.size());
                  spans.emplace_back(arena.Append(key.data(), key.size()),
                                     static_cast<uint32_t>(key.size()));
                  bg.first_row.push_back(r);
                  bg.states.resize(bg.states.size() + num_aggs);
                  return id;
                });
          }
        }
        for (size_t ai = 0; ai < num_aggs; ++ai) {
          const Aggregate& agg = n->aggregates[ai];
          AggState* st = bg.states.data();
          // count/count(*) fold every row unconditionally (engine
          // semantics, mirrored by the row oracle).
          if (agg.func == AggFunc::kCountStar ||
              agg.func == AggFunc::kCount) {
            for (size_t r = begin; r < end; ++r) {
              st[gid[r - begin] * num_aggs + ai].count++;
            }
            continue;
          }
          const ColumnData& col = in.col(static_cast<size_t>(agg_cols[ai]));
          // Tight typed loops for the hot aggregate/column shapes; each
          // replicates AccumulateRow's per-row effect exactly (same
          // floating-point op order per state), so results stay
          // bit-identical to the generic path.
          bool sumlike =
              agg.func == AggFunc::kSum || agg.func == AggFunc::kAvg;
          // Lazy homomorphic fold: stage (row, group) pairs; the Montgomery
          // work happens once per group at finalize. Scheme and key checks
          // stay per row so error surfacing matches the eager path, with an
          // inline last-key cache replacing the per-row hash lookup.
          if (sumlike && lazy_slot[ai] >= 0) {
            const EncArena& encs = col.enc();
            auto slot = static_cast<size_t>(lazy_slot[ai]);
            std::vector<uint32_t>& hrows = bg.hom_rows[slot];
            std::vector<uint32_t>& hgids = bg.hom_gids[slot];
            const ColumnCodec* codec = nullptr;
            uint64_t codec_key = 0;
            for (size_t r = begin; r < end; ++r) {
              if (col.IsNull(r)) continue;
              EncKey k = encs.KeyAt(r);
              if (k.scheme != EncScheme::kPaillier) {
                return Status::Unsupported(StrFormat(
                    "node %d: %s over %s ciphertext requires the HOM scheme",
                    n->id, AggFuncName(agg.func), EncSchemeName(k.scheme)));
              }
              if (codec == nullptr || k.key_id != codec_key) {
                auto pm = hom_codecs.find(k.key_id);
                if (pm == hom_codecs.end()) {
                  return Status::NotFound(StrFormat(
                      "node %d: no public modulus for key %llu", n->id,
                      static_cast<unsigned long long>(k.key_id)));
                }
                codec = &pm->second;
                codec_key = k.key_id;
              }
              AggState& s = st[gid[r - begin] * num_aggs + ai];
              if (!s.hom) {
                s.hom = true;
                s.hom_codec = codec;
                s.hom_template_row = r;
              }
              s.hom_count += encs.AuxAt(r);
              hrows.push_back(static_cast<uint32_t>(r));
              hgids.push_back(gid[r - begin]);
            }
            continue;
          }
          if (sumlike && col.rep() == ColumnRep::kInt64 &&
              !col.has_nulls()) {
            const int64_t* v = col.i64().data();
            for (size_t r = begin; r < end; ++r) {
              AggState& s = st[gid[r - begin] * num_aggs + ai];
              s.sum += static_cast<double>(v[r]);
              s.count++;
            }
            continue;
          }
          if (sumlike && col.rep() == ColumnRep::kDouble &&
              !col.has_nulls()) {
            const double* v = col.f64().data();
            for (size_t r = begin; r < end; ++r) {
              AggState& s = st[gid[r - begin] * num_aggs + ai];
              s.sum += v[r];
              s.sum_is_double = true;
              s.count++;
            }
            continue;
          }
          bool minmax =
              agg.func == AggFunc::kMin || agg.func == AggFunc::kMax;
          if (minmax && col.rep() == ColumnRep::kInt64 && !col.has_nulls()) {
            // CmpPlainRows compares int64 as double; mirror that exactly so
            // ties (beyond 2^53) keep the first occurrence either way.
            const int64_t* v = col.i64().data();
            bool want_less = agg.func == AggFunc::kMin;
            for (size_t r = begin; r < end; ++r) {
              AggState& s = st[gid[r - begin] * num_aggs + ai];
              auto x = static_cast<double>(v[r]);
              auto best = static_cast<double>(v[s.best_row]);
              if (!s.has_min_max || (want_less ? x < best : x > best)) {
                s.best_row = r;
                s.has_min_max = true;
              }
            }
            continue;
          }
          if (minmax && col.rep() == ColumnRep::kDouble && !col.has_nulls()) {
            // NaN never compares better (CmpPlainRows returns 0 for it).
            const double* v = col.f64().data();
            bool want_less = agg.func == AggFunc::kMin;
            for (size_t r = begin; r < end; ++r) {
              AggState& s = st[gid[r - begin] * num_aggs + ai];
              double x = v[r], best = v[s.best_row];
              if (!s.has_min_max || (want_less ? x < best : x > best)) {
                s.best_row = r;
                s.has_min_max = true;
              }
            }
            continue;
          }
          for (size_t r = begin; r < end; ++r) {
            MPQ_RETURN_NOT_OK(
                AccumulateRow(n, agg, col, r, hom_codecs,
                              &st[gid[r - begin] * num_aggs + ai]));
          }
        }
        return Status::OK();
      }));

  // Phase 2: merge batch groups in batch order — group order is first
  // occurrence over the whole input, like a sequential scan. On the typed
  // path without dictionary columns, code words are raw value bits and thus
  // comparable across batches, so unification works on the words directly;
  // otherwise each group's canonical byte key is re-derived from its first
  // row (cheap: per group, not per row). Either equivalence is byte-key
  // equality exactly as before.
  FlatHashIndex gindex;
  ByteArena gkeys;
  std::vector<std::pair<uint64_t, uint32_t>> gspans;
  std::vector<uint64_t> gkey_words;
  std::vector<size_t> group_first_row;
  std::vector<AggState> states;
  bool words_merge = typed && !dict_keys;
  size_t kw = group_cols.size() + (null_word ? 1 : 0);
  // Global lazy staging, one slot per lazy aggregate: batch stages are
  // concatenated in batch order with group ids remapped to global ids, so
  // each group's row list is in ascending row order — identical at any
  // thread count.
  std::vector<std::vector<uint32_t>> hom_rows(num_lazy);
  std::vector<std::vector<uint32_t>> hom_gids(num_lazy);
  {
    std::string key;
    std::vector<uint32_t> remap;
    for (BatchGroups& bg : batches) {
      remap.resize(bg.first_row.size());
      for (size_t g = 0; g < bg.first_row.size(); ++g) {
        uint64_t hash;
        const uint64_t* row = nullptr;
        if (words_merge) {
          row = bg.key_words.data() + g * kw;
          hash = HashWords(row, kw);
        } else {
          MPQ_RETURN_NOT_OK(
              RowKeyBytes(in, group_cols, bg.first_row[g], &key));
          hash = HashBytes(key.data(), key.size());
        }
        bool inserted = false;
        uint32_t idx = gindex.FindOrInsert(
            hash,
            [&](uint32_t id) {
              if (words_merge) {
                return std::memcmp(gkey_words.data() + id * kw, row,
                                   kw * 8) == 0;
              }
              return gkeys.View(gspans[id].first, gspans[id].second) == key;
            },
            [&] {
              auto id = static_cast<uint32_t>(group_first_row.size());
              if (words_merge) {
                gkey_words.insert(gkey_words.end(), row, row + kw);
              } else {
                gspans.emplace_back(gkeys.Append(key.data(), key.size()),
                                    static_cast<uint32_t>(key.size()));
              }
              group_first_row.push_back(bg.first_row[g]);
              auto src = bg.states.begin() + static_cast<long>(g * num_aggs);
              states.insert(states.end(), src,
                            src + static_cast<long>(num_aggs));
              inserted = true;
              return id;
            });
        remap[g] = idx;
        if (inserted) continue;
        for (size_t ai = 0; ai < num_aggs; ++ai) {
          const ColumnData* col = nullptr;
          if (agg_cols[ai] >= 0) {
            col = &in.col(static_cast<size_t>(agg_cols[ai]));
          }
          MPQ_RETURN_NOT_OK(MergeAggState(n->aggregates[ai], col,
                                          lazy_slot[ai] >= 0,
                                          bg.states[g * num_aggs + ai],
                                          &states[idx * num_aggs + ai]));
        }
      }
      for (size_t h = 0; h < num_lazy; ++h) {
        hom_rows[h].insert(hom_rows[h].end(), bg.hom_rows[h].begin(),
                           bg.hom_rows[h].end());
        hom_gids[h].reserve(hom_gids[h].size() + bg.hom_gids[h].size());
        for (uint32_t bgid : bg.hom_gids[h]) {
          hom_gids[h].push_back(remap[bgid]);
        }
      }
    }
  }

  // Finalize lazy homomorphic sums: order each aggregate's staged rows by
  // group (counting sort — batch-ordered stages in, per-group ascending row
  // runs out), then fold every group's ciphertexts in one pass. One
  // reusable accumulation context per key serves all groups; each
  // ciphertext is parsed and reduced exactly once.
  size_t num_groups = group_first_row.size();
  for (size_t ai = 0; ai < num_aggs; ++ai) {
    if (lazy_slot[ai] < 0) continue;
    auto h = static_cast<size_t>(lazy_slot[ai]);
    const std::vector<uint32_t>& rows = hom_rows[h];
    const std::vector<uint32_t>& gids = hom_gids[h];
    const ColumnData& col = in.col(static_cast<size_t>(agg_cols[ai]));
    std::vector<uint32_t> offs(num_groups + 1, 0);
    for (uint32_t g : gids) offs[g + 1]++;
    for (size_t g = 0; g < num_groups; ++g) offs[g + 1] += offs[g];
    std::vector<uint32_t> ordered(rows.size());
    std::vector<uint32_t> cur(offs.begin(), offs.end() - 1);
    for (size_t i = 0; i < rows.size(); ++i) {
      ordered[cur[gids[i]]++] = rows[i];
    }
    ColumnCodec* codec = nullptr;
    uint64_t codec_key = 0;
    for (size_t g = 0; g < num_groups; ++g) {
      size_t b = offs[g], e = offs[g + 1];
      if (b == e) continue;  // no ciphertext rows: plaintext/NULL-only group
      // Fold under the group's first ciphertext key — the same binding the
      // eager path uses; phase 1 already validated every key id.
      uint64_t kid = col.enc().KeyAt(ordered[b]).key_id;
      if (codec == nullptr || kid != codec_key) {
        codec = &hom_codecs.find(kid)->second;
        codec_key = kid;
      }
      AggState& s = states[g * num_aggs + ai];
      MPQ_ASSIGN_OR_RETURN(
          s.hom_cipher, codec->FoldRows(col, ordered.data() + b, e - b));
    }
  }

  // Observable operator detail: bytes of the merged state/key arenas and
  // the number of ciphertexts the lazy homomorphic folds touched. Counters
  // only — results are unaffected.
  if (ctx->op_profile != nullptr) {
    uint64_t staged = 0;
    for (const std::vector<uint32_t>& rows : hom_rows) staged += rows.size();
    uint64_t arena = states.size() * sizeof(AggState) + gkeys.size() +
                     gkey_words.size() * sizeof(uint64_t);
    ctx->op_profile->RecordDetail(OpKind::kGroupBy, arena, staged);
  }

  // Degenerate global aggregation over an empty input: emit no rows
  // (matching our engine's semantics; SQL would emit one NULL row). The
  // output is built column-at-a-time: group keys gather from the operand,
  // aggregates materialize from their states.
  std::vector<ColumnData> out_data;
  out_data.reserve(out_cols.size());
  for (size_t gc = 0; gc < group_cols.size(); ++gc) {
    const ColumnData& src = in.col(static_cast<size_t>(group_cols[gc]));
    ColumnData col(src.rep());
    col.Reserve(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      col.AppendFrom(src, group_first_row[g]);
    }
    out_data.push_back(std::move(col));
  }
  for (size_t ai = 0; ai < n->aggregates.size(); ++ai) {
    const Aggregate& agg = n->aggregates[ai];
    const ColumnData* src =
        agg_cols[ai] >= 0 ? &in.col(static_cast<size_t>(agg_cols[ai]))
                          : nullptr;
    std::vector<Cell> cells;
    cells.reserve(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      MPQ_ASSIGN_OR_RETURN(
          Cell cell, AggOutputCell(agg, states[g * num_aggs + ai], src));
      cells.push_back(std::move(cell));
    }
    out_data.push_back(ColumnFromCells(std::move(cells)));
  }
  return TableFromColumns(std::move(out_cols), std::move(out_data));
}

/// Out-of-core group-by: rows are hash-partitioned on the group key (each
/// group lands wholly in one partition), spilled as compressed segments,
/// and each partition is aggregated alone with bounded state. Per-group
/// accumulation replays the in-memory algorithm's exact floating-point
/// association: partials are accumulated per *global* batch (recovered from
/// the spilled global-row column) and merged at batch boundaries in
/// ascending order, so results are bit-identical to the unspilled engine at
/// any thread count. Ciphertext sums fold eagerly (modular products are
/// association-independent, so they equal the in-memory lazy fold bit for
/// bit).
Result<Table> ExecGroupBySpill(const PlanNode* n, Table in, ExecContext* ctx) {
  MPQ_ASSIGN_OR_RETURN(GroupBySchema schema, BindGroupBy(n, in, ctx));
  size_t num_aggs = n->aggregates.size();
  HomCodecMap hom_codecs = HomCodecsFor(n, in, schema.agg_cols, ctx,
                                        /*lazy_slot=*/nullptr,
                                        /*num_lazy=*/nullptr);
  NoteSpillGeneration(ctx, 1);
  std::vector<ColumnRep> key_reps;
  for (int gc : schema.group_cols) {
    key_reps.push_back(in.col(static_cast<size_t>(gc)).rep());
  }
  size_t n_in_cols = in.num_columns();
  AppendRowIdColumn(&in);
  MPQ_ASSIGN_OR_RETURN(
      std::vector<std::string> paths,
      SpillPartitionTable(in, schema.group_cols, 0xc2b2ae3d27d4eb4full, ctx));
  in = Table();

  // Surviving per-group outputs: the key row (one row per group in the
  // per-partition key tables), the finalized aggregate cells, and the
  // group's global first-occurrence row for final ordering.
  struct GroupRef {
    uint64_t global_first;
    uint32_t part;
    uint32_t local_gid;
  };
  std::vector<GroupRef> groups;
  std::vector<Table> key_tables(kSpillFanout);
  std::vector<Cell> agg_out;  // stride num_aggs, aligned with `groups`

  size_t grain = Grain(ctx);
  for (size_t p = 0; p < kSpillFanout; ++p) {
    MPQ_ASSIGN_OR_RETURN(Table part, ReadSpillSegment(paths[p], ctx));
    if (part.num_rows() == 0) continue;
    const int64_t* grow = part.col(n_in_cols).i64().data();
    FlatHashIndex index(part.num_rows());
    ByteArena arena;
    std::vector<std::pair<uint64_t, uint32_t>> spans;
    std::vector<uint32_t> local_first;
    std::vector<AggState> merged_states, partials;
    std::vector<uint64_t> cur_batch;
    std::string key;
    for (size_t r = 0; r < part.num_rows(); ++r) {
      MPQ_RETURN_NOT_OK(RowKeyBytes(part, schema.group_cols, r, &key));
      uint64_t batch = static_cast<uint64_t>(grow[r]) / grain;
      uint32_t g = index.FindOrInsert(
          HashBytes(key.data(), key.size()),
          [&](uint32_t id) {
            return arena.View(spans[id].first, spans[id].second) == key;
          },
          [&] {
            auto id = static_cast<uint32_t>(local_first.size());
            spans.emplace_back(arena.Append(key.data(), key.size()),
                               static_cast<uint32_t>(key.size()));
            local_first.push_back(static_cast<uint32_t>(r));
            merged_states.resize(merged_states.size() + num_aggs);
            partials.resize(partials.size() + num_aggs);
            cur_batch.push_back(batch);
            return id;
          });
      if (batch != cur_batch[g]) {
        // Global batch boundary: fold this group's partial into its merged
        // state, in ascending batch order — the in-memory merge order.
        for (size_t ai = 0; ai < num_aggs; ++ai) {
          const ColumnData* col =
              schema.agg_cols[ai] >= 0
                  ? &part.col(static_cast<size_t>(schema.agg_cols[ai]))
                  : nullptr;
          MPQ_RETURN_NOT_OK(MergeAggState(
              n->aggregates[ai], col, /*lazy_hom=*/false,
              partials[g * num_aggs + ai], &merged_states[g * num_aggs + ai]));
          partials[g * num_aggs + ai] = AggState();
        }
        cur_batch[g] = batch;
      }
      for (size_t ai = 0; ai < num_aggs; ++ai) {
        const Aggregate& agg = n->aggregates[ai];
        AggState& s = partials[g * num_aggs + ai];
        if (agg.func == AggFunc::kCountStar || agg.func == AggFunc::kCount) {
          s.count++;  // counts fold every row, column or not
          continue;
        }
        MPQ_RETURN_NOT_OK(AccumulateRow(
            n, agg, part.col(static_cast<size_t>(schema.agg_cols[ai])), r,
            hom_codecs, &s));
      }
    }
    size_t part_groups = local_first.size();
    for (size_t g = 0; g < part_groups; ++g) {
      for (size_t ai = 0; ai < num_aggs; ++ai) {
        const ColumnData* col =
            schema.agg_cols[ai] >= 0
                ? &part.col(static_cast<size_t>(schema.agg_cols[ai]))
                : nullptr;
        MPQ_RETURN_NOT_OK(MergeAggState(
            n->aggregates[ai], col, /*lazy_hom=*/false,
            partials[g * num_aggs + ai], &merged_states[g * num_aggs + ai]));
      }
    }
    // Materialize this partition's outputs before its table is freed: one
    // key row per group (first occurrence) and the finalized cells.
    Table kt;
    for (size_t k = 0; k < schema.group_cols.size(); ++k) {
      const ColumnData& src =
          part.col(static_cast<size_t>(schema.group_cols[k]));
      ColumnData d(src.rep());
      d.Reserve(part_groups);
      d.AppendSelected(src, local_first.data(), part_groups);
      kt.AddColumn(part.columns()[static_cast<size_t>(schema.group_cols[k])],
                   std::move(d));
    }
    key_tables[p] = std::move(kt);
    for (size_t g = 0; g < part_groups; ++g) {
      groups.push_back({static_cast<uint64_t>(grow[local_first[g]]),
                        static_cast<uint32_t>(p), static_cast<uint32_t>(g)});
      for (size_t ai = 0; ai < num_aggs; ++ai) {
        const ColumnData* col =
            schema.agg_cols[ai] >= 0
                ? &part.col(static_cast<size_t>(schema.agg_cols[ai]))
                : nullptr;
        MPQ_ASSIGN_OR_RETURN(
            Cell cell, AggOutputCell(n->aggregates[ai],
                                     merged_states[g * num_aggs + ai], col));
        agg_out.push_back(std::move(cell));
      }
    }
  }

  // Global output order = ascending first occurrence, the in-memory group
  // order (first rows are distinct, so the order is total).
  std::vector<uint32_t> order(groups.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return groups[a].global_first < groups[b].global_first;
  });
  std::vector<ColumnData> out_data;
  out_data.reserve(schema.out_cols.size());
  for (size_t k = 0; k < schema.group_cols.size(); ++k) {
    ColumnData col(key_reps[k]);
    col.Reserve(order.size());
    for (uint32_t idx : order) {
      col.AppendFrom(key_tables[groups[idx].part].col(k),
                     groups[idx].local_gid);
    }
    out_data.push_back(std::move(col));
  }
  for (size_t ai = 0; ai < num_aggs; ++ai) {
    std::vector<Cell> cells;
    cells.reserve(order.size());
    for (uint32_t idx : order) {
      cells.push_back(std::move(agg_out[idx * num_aggs + ai]));
    }
    out_data.push_back(ColumnFromCells(std::move(cells)));
  }
  return TableFromColumns(std::move(schema.out_cols), std::move(out_data));
}

Result<Table> ExecGroupBy(const PlanNode* n, Table in, ExecContext* ctx) {
  bool spill = ctx->memory_budget != 0 && in.num_rows() > 0 &&
               !n->group_by.ToVector().empty() &&
               in.ByteSize() > ctx->memory_budget;
  if (spill) {
    // Unresolvable group attributes surface identically from either path;
    // let the in-memory binder report them.
    for (AttrId a : n->group_by.ToVector()) {
      if (in.ColIndex(a) < 0) {
        spill = false;
        break;
      }
    }
  }
  if (!spill) return ExecGroupByInMemory(n, std::move(in), ctx);
  return ExecGroupBySpill(n, std::move(in), ctx);
}

Result<Table> ExecUdf(const PlanNode* n, Table in, ExecContext* ctx) {
  std::vector<AttrId> inputs = n->udf_inputs.ToVector();
  std::vector<int> in_cols;
  for (AttrId a : inputs) {
    int idx = in.ColIndex(a);
    if (idx < 0) return ColNotFound(n, a, *ctx->catalog);
    in_cols.push_back(idx);
  }
  int out_src = in.ColIndex(n->udf_output);
  if (out_src < 0) return ColNotFound(n, n->udf_output, *ctx->catalog);

  // Resolve the implementation; fall back to the built-in combiner.
  UdfImpl impl;
  auto it = ctx->udfs.find(n->udf_name);
  impl = it != ctx->udfs.end() ? it->second : UdfImpl(DefaultUdf);

  // Output layout: child columns minus (inputs \ {output}), with the output
  // column's cells replaced by the udf result. Registered implementations
  // are not required to be thread-safe, so udf rows run sequentially.
  std::vector<Cell> results;
  results.reserve(in.num_rows());
  {
    // Concurrent sibling subtrees may both reach a udf node; serialize the
    // invocation loop so one shared UdfImpl is never entered from two
    // threads.
    std::lock_guard<std::mutex> udf_lock(*ctx->udf_mu);
    std::vector<Cell> args(in_cols.size());
    for (size_t r = 0; r < in.num_rows(); ++r) {
      for (size_t k = 0; k < in_cols.size(); ++k) {
        args[k] = in.col(static_cast<size_t>(in_cols[k])).GetCell(r);
      }
      MPQ_ASSIGN_OR_RETURN(Cell result, impl(args));
      results.push_back(std::move(result));
    }
  }

  Table out;
  for (size_t i = 0; i < in.num_columns(); ++i) {
    AttrId a = in.columns()[i].attr;
    if (n->udf_inputs.Contains(a) && a != n->udf_output) continue;
    if (static_cast<int>(i) == out_src) {
      ExecColumn col = in.columns()[i];
      ColumnData data = ColumnFromCells(std::move(results));
      // The output column's representation may have changed (e.g. plaintext
      // result over plaintext inputs): reflect the first row's form.
      if (data.size() > 0) {
        Cell first = data.GetCell(0);
        col.encrypted = first.is_encrypted();
        if (first.is_encrypted()) {
          col.scheme = first.enc().scheme;
          col.key_id = first.enc().key_id;
        } else if (!first.plain().is_string() && !first.plain().is_null()) {
          col.type = first.plain().is_double() ? DataType::kDouble
                                               : DataType::kInt64;
        }
      }
      out.AddColumn(std::move(col), std::move(data));
    } else {
      out.AddColumn(std::move(in.columns()[i]), in.ShareCol(i));
    }
  }
  return out;
}

Result<Table> ExecEncrypt(const PlanNode* n, Table in, ExecContext* ctx) {
  if (ctx->keyring == nullptr) {
    return Status::NotFound("engine holds no keyring");
  }
  std::vector<AttrId> attrs = n->attrs.ToVector();
  for (AttrId a : attrs) {
    int idx = in.ColIndex(a);
    if (idx < 0) return ColNotFound(n, a, *ctx->catalog);
    ExecColumn& col = in.columns()[static_cast<size_t>(idx)];
    if (col.encrypted) {
      return Status::InvalidArgument(StrFormat(
          "node %d: attribute %s is already encrypted", n->id,
          col.name.c_str()));
    }
    EncScheme scheme = ctx->crypto != nullptr ? ctx->crypto->SchemeOf(a)
                                              : EncScheme::kDeterministic;
    uint64_t key_id = ctx->crypto != nullptr ? ctx->crypto->KeyOf(a) : 0;
    const KeyMaterial* km = ctx->keyring->Find(key_id);
    if (km == nullptr) {
      return Status::NotFound(
          StrFormat("key %llu was not distributed to this subject",
                    static_cast<unsigned long long>(key_id)));
    }
    ColumnCodec codec(*km);
    // One PRF-derived nonce range per (node, column): row r uses
    // nonce_base + r, so ciphertexts do not depend on batch scheduling,
    // thread count, or sibling-subtree execution order. The whole column is
    // encrypted with one key lookup, batch-parallel over its contiguous
    // plaintext vector (EncryptSpan is const and thread-safe).
    uint64_t nonce_base = ctx->ColumnNonceBase(n->id, a);
    const ColumnData& src = in.col(static_cast<size_t>(idx));
    MPQ_ASSIGN_OR_RETURN(EncArena arena, codec.SizeEncrypt(src, scheme));
    MPQ_RETURN_NOT_OK(RunOpMorsels(
        ctx, OpKind::kEncrypt, in.num_rows(),
        [&](size_t begin, size_t end) -> Status {
          return codec.EncryptSpan(src, begin, end, scheme, nonce_base,
                                   &arena);
        }));
    ColumnData encrypted;
    encrypted.Adopt(std::move(arena));
    in.SetColumnData(static_cast<size_t>(idx), std::move(encrypted));
    col.encrypted = true;
    col.scheme = scheme;
    col.key_id = key_id;
  }
  return in;
}

Result<Table> ExecDecrypt(const PlanNode* n, Table in, ExecContext* ctx) {
  if (ctx->keyring == nullptr) {
    return Status::NotFound("engine holds no keyring");
  }
  std::vector<AttrId> attrs = n->attrs.ToVector();
  for (AttrId a : attrs) {
    int idx = in.ColIndex(a);
    if (idx < 0) return ColNotFound(n, a, *ctx->catalog);
    ExecColumn& col = in.columns()[static_cast<size_t>(idx)];
    if (!col.encrypted) {
      return Status::InvalidArgument(StrFormat(
          "node %d: attribute %s is not encrypted", n->id, col.name.c_str()));
    }
    const KeyMaterial* km = ctx->keyring->Find(col.key_id);
    if (km == nullptr) {
      return Status::NotFound(
          StrFormat("key %llu was not distributed to this subject",
                    static_cast<unsigned long long>(col.key_id)));
    }
    ColumnCodec codec(*km);
    bool avg = col.hom_avg;
    const ColumnData& src = in.col(static_cast<size_t>(idx));
    // DecryptSpan handles the whole span: ciphertexts decrypt (including the
    // homomorphic-average division), plain NULLs and stray plaintext cells
    // inside a ciphertext column pass through untouched. Each morsel appends
    // to its own typed part; the parts splice into the column
    // ColumnFromCells would build from the same cells.
    const size_t grain = Grain(ctx);
    std::vector<ColumnData> parts(
        (in.num_rows() + grain - 1) / grain,
        ColumnData(RepForType(avg ? DataType::kDouble : col.type)));
    MPQ_RETURN_NOT_OK(RunOpMorsels(
        ctx, OpKind::kDecrypt, in.num_rows(),
        [&](size_t begin, size_t end) -> Status {
          return codec.DecryptSpan(src, begin, end, col.type, avg,
                                   &parts[begin / grain]);
        }));
    in.SetColumnData(static_cast<size_t>(idx),
                     ConcatColumns(std::move(parts)));
    col.encrypted = false;
    if (avg) {
      col.type = DataType::kDouble;
      col.hom_avg = false;
    }
  }
  return in;
}

}  // namespace

Result<Cell> DefaultUdf(const std::vector<Cell>& cells) {
  // Default udf: over plaintext, a weighted numeric combination; over
  // ciphertexts, an opaque deterministic digest (simulating an
  // encrypted-domain analytic whose output is itself encrypted).
  bool all_plain = true;
  for (const Cell& c : cells) all_plain = all_plain && c.is_plain();
  if (all_plain) {
    double acc = 0;
    double w = 1.0;
    for (const Cell& c : cells) {
      if (!c.plain().is_null() && !c.plain().is_string()) {
        acc += w * c.plain().AsDouble();
      } else if (c.plain().is_string()) {
        acc += w * static_cast<double>(c.plain().AsString().size());
      }
      w *= 0.5;
    }
    return Cell(Value(acc));
  }
  EncValue out;
  uint64_t h = 0x6a09e667f3bcc909ull;
  for (const Cell& c : cells) {
    const std::string& bytes =
        c.is_plain() ? c.plain().Serialize() : c.enc().blob;
    for (unsigned char b : bytes) h = SplitMix64(h ^ b);
    if (c.is_encrypted()) {
      out.scheme = c.enc().scheme;
      out.key_id = c.enc().key_id;
    }
  }
  out.scheme = EncScheme::kDeterministic;
  out.blob.assign(reinterpret_cast<const char*>(&h), 8);
  return Cell(std::move(out));
}

Table MakeBaseTable(const RelationDef& rel) {
  std::vector<ExecColumn> cols;
  for (const Column& c : rel.schema.columns()) {
    ExecColumn ec;
    ec.attr = c.attr;
    ec.name = c.name;
    ec.type = c.type;
    cols.push_back(ec);
  }
  return Table(std::move(cols));
}

namespace {

Result<Table> DispatchNode(const PlanNode* n, std::vector<Table> inputs,
                           ExecContext* ctx) {
  if (inputs.size() != n->num_children()) {
    return Status::InvalidArgument(StrFormat(
        "node %d (%s): expected %zu operand tables, got %zu", n->id,
        OpKindName(n->kind), n->num_children(), inputs.size()));
  }
  switch (n->kind) {
    case OpKind::kBase: {
      if (const Table* t = ctx->BaseTable(n->rel)) return *t;  // copy
      // Cold relations are published as compressed segments; the first scan
      // decodes (and caches) the whole table.
      auto st = ctx->segment_tables.find(n->rel);
      if (st != ctx->segment_tables.end()) {
        MPQ_ASSIGN_OR_RETURN(const Table* t, st->second->Materialize());
        return *t;  // copy
      }
      return Status::NotFound(StrFormat(
          "no data loaded for relation %s",
          ctx->catalog->Get(n->rel).name.c_str()));
    }
    case OpKind::kProject:
      return ExecProject(n, std::move(inputs[0]), ctx);
    case OpKind::kSelect:
      return ExecSelect(n, std::move(inputs[0]), ctx);
    case OpKind::kCartesian:
      return ExecCartesian(n, std::move(inputs[0]), std::move(inputs[1]), ctx);
    case OpKind::kJoin:
      return ExecJoin(n, std::move(inputs[0]), std::move(inputs[1]), ctx);
    case OpKind::kGroupBy:
      return ExecGroupBy(n, std::move(inputs[0]), ctx);
    case OpKind::kUdf:
      return ExecUdf(n, std::move(inputs[0]), ctx);
    case OpKind::kEncrypt:
      return ExecEncrypt(n, std::move(inputs[0]), ctx);
    case OpKind::kDecrypt:
      return ExecDecrypt(n, std::move(inputs[0]), ctx);
  }
  return Status::Internal("unreachable operator kind");
}

/// Segment-pruned scan for a select directly over a segment-backed base
/// relation: every constant predicate on an unencrypted column is tested
/// against each segment's zone map, and segments that provably contain no
/// qualifying row are never decoded. The surviving concatenation feeds the
/// ordinary select operator, so binding errors and filter semantics are
/// unchanged — pruning only removes rows the filter would drop anyway.
Result<Table> ZoneMapScan(const SegmentedTable& st, const PlanNode* sel,
                          ExecContext* ctx) {
  struct Prunable {
    CmpOp op;
    size_t col;
    const Value* v;
  };
  std::vector<Prunable> preds;
  for (const Predicate& p : sel->predicates) {
    if (!ctx->zone_map_skipping) break;
    if (p.rhs_is_attr) continue;
    for (size_t c = 0; c < st.columns().size(); ++c) {
      if (st.columns()[c].attr == p.lhs && !st.columns()[c].encrypted) {
        preds.push_back({p.op, c, &p.rhs_value});
        break;
      }
    }
  }
  std::vector<const SegmentReader*> survivors;
  for (size_t s = 0; s < st.num_segments(); ++s) {
    const SegmentReader& seg = st.segment(s);
    ctx->segments_scanned.fetch_add(1, std::memory_order_relaxed);
    bool may = true;
    for (const Prunable& pr : preds) {
      if (!ZoneMayMatch(seg.zone(pr.col), pr.op, *pr.v)) {
        may = false;
        break;
      }
    }
    if (!may) {
      ctx->segments_skipped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    survivors.push_back(&seg);
  }
  // Surviving segment i decodes as morsel i; chunks merge in segment order.
  std::vector<Chunk> chunks(survivors.size());
  MPQ_RETURN_NOT_OK(RunMorsels(
      ctx->morsels, survivors.size(), 1,
      [&](size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          MPQ_ASSIGN_OR_RETURN(Table part, survivors[i]->Decode(ctx->morsels));
          chunks[i].reserve(part.num_columns());
          for (size_t c = 0; c < part.num_columns(); ++c) {
            chunks[i].push_back(std::move(part.col_mut(c)));
          }
        }
        return Status::OK();
      }));
  if (chunks.empty()) {
    // Everything pruned: an empty table in the segments' physical reps, the
    // same shape a fully filtered decode would produce.
    Table out;
    for (size_t c = 0; c < st.columns().size(); ++c) {
      out.AddColumn(st.columns()[c], ColumnData(st.segment(0).rep(c)));
    }
    return out;
  }
  return MergeChunks(st.columns(), std::move(chunks));
}

}  // namespace

Result<Table> ExecuteNodeOnInputs(const PlanNode* n, std::vector<Table> inputs,
                                  ExecContext* ctx) {
  if (ctx->op_profile == nullptr && ctx->trace == nullptr) {
    return DispatchNode(n, std::move(inputs), ctx);
  }
  uint64_t rows_in = 0;
  for (const Table& t : inputs) rows_in += t.num_rows();
  Span span;
  if (ctx->trace != nullptr) {
    span = ctx->trace->StartSpan(OpKindName(n->kind), "op", ctx->trace_parent,
                                 n->id, ctx->trace_track);
  }
  uint64_t morsels0 = ctx->op_morsels.load(std::memory_order_relaxed);
  auto t0 = std::chrono::steady_clock::now();
  Result<Table> result = DispatchNode(n, std::move(inputs), ctx);
  auto ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  uint64_t rows_out = result.ok() ? result->num_rows() : 0;
  uint64_t morsels =
      ctx->op_morsels.load(std::memory_order_relaxed) - morsels0;
  if (ctx->op_profile != nullptr) {
    ctx->op_profile->Record(n->kind, ns, rows_in, rows_out);
  }
  if (span) {
    span.AnnInt("rows_in", static_cast<int64_t>(rows_in));
    span.AnnInt("rows_out", static_cast<int64_t>(rows_out));
    if (rows_in > 0) {
      span.AnnDouble("selectivity", static_cast<double>(rows_out) /
                                        static_cast<double>(rows_in));
    }
    span.AnnInt("wall_ns", static_cast<int64_t>(ns));
    if (morsels > 0) span.AnnInt("morsels", static_cast<int64_t>(morsels));
    if (!result.ok()) span.AnnStr("error", result.status().ToString());
  }
  return result;
}

Result<Table> ExecutePlan(const PlanNode* root, ExecContext* ctx) {
  // A select directly over a segment-backed base relation scans via zone
  // maps: whole segments are skipped before any decode.
  if (root->kind == OpKind::kSelect && root->num_children() == 1 &&
      root->child(0)->kind == OpKind::kBase) {
    const PlanNode* base = root->child(0);
    if (ctx->BaseTable(base->rel) == nullptr) {
      auto st = ctx->segment_tables.find(base->rel);
      if (st != ctx->segment_tables.end()) {
        MPQ_ASSIGN_OR_RETURN(Table in, ZoneMapScan(*st->second, root, ctx));
        std::vector<Table> one;
        one.push_back(std::move(in));
        return ExecuteNodeOnInputs(root, std::move(one), ctx);
      }
    }
  }
  // Independent subtrees run as the morsels of one run (child i is morsel
  // i): the caller takes child 0, pool workers the rest, and the
  // lowest-index child error wins, as in the sequential order.
  size_t nc = root->num_children();
  std::vector<Table> inputs(nc);
  auto run_child = [&](size_t i, size_t) -> Status {
    MPQ_ASSIGN_OR_RETURN(inputs[i], ExecutePlan(root->child(i), ctx));
    return Status::OK();
  };
  MPQ_RETURN_NOT_OK(
      RunMorsels(nc > 1 ? ctx->morsels : nullptr, nc, 1, run_child));
  return ExecuteNodeOnInputs(root, std::move(inputs), ctx);
}

}  // namespace mpq
