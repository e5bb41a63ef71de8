#include "exec/column.h"

#include <algorithm>
#include <cstring>

namespace mpq {

const char* ColumnRepName(ColumnRep r) {
  switch (r) {
    case ColumnRep::kInt64:
      return "int64";
    case ColumnRep::kDouble:
      return "double";
    case ColumnRep::kString:
      return "string";
    case ColumnRep::kEnc:
      return "enc";
    case ColumnRep::kCell:
      return "cell";
  }
  return "unknown";
}

ColumnRep RepForType(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return ColumnRep::kInt64;
    case DataType::kDouble:
      return ColumnRep::kDouble;
    case DataType::kString:
      return ColumnRep::kString;
  }
  return ColumnRep::kCell;
}

EncArena EncArena::Sized(std::optional<EncKey> key, std::vector<uint32_t> off,
                         std::vector<EncKey> keys, std::vector<int64_t> aux) {
  assert(!off.empty() && off[0] == 0);
  assert(keys.empty() || keys.size() == off.size() - 1);
  assert(aux.empty() || aux.size() == off.size() - 1);
  EncArena a;
  a.bytes_.resize(off.back());
  a.off_ = std::move(off);
  a.keyed_ = key.has_value() && a.size() > 0;
  a.key_ = key.value_or(EncKey());
  a.keys_ = std::move(keys);
  a.aux_ = std::move(aux);
  return a;
}

void EncArena::Reserve(size_t rows, size_t bytes) {
  off_.reserve(rows + 1);
  bytes_.reserve(bytes);
}

void EncArena::Clear() { *this = EncArena(); }

void EncArena::Push(EncView ev) {
  assert(Fits(ev.blob.size()));
  EncKey k = ev.key();
  if (!keyed_) {
    key_ = k;
    keyed_ = true;
  }
  // Per-row vectors start at the first row that departs from the default.
  if (!keys_.empty() || k != key_) {
    if (keys_.empty()) keys_.assign(size(), key_);
    keys_.push_back(k);
  }
  if (!aux_.empty() || ev.aux != 1) {
    if (aux_.empty()) aux_.assign(size(), 1);
    aux_.push_back(ev.aux);
  }
  if (off_.empty()) off_.push_back(0);
  bytes_.append(ev.blob.data(), ev.blob.size());
  off_.push_back(static_cast<uint32_t>(bytes_.size()));
}

void EncArena::PushNull() {
  if (!keys_.empty()) keys_.push_back(key_);
  if (!aux_.empty()) aux_.push_back(1);
  if (off_.empty()) off_.push_back(0);
  off_.push_back(off_.back());
}

template <typename Rows>
bool EncArena::AppendRows(const EncArena& src,
                          const std::vector<uint8_t>& src_nulls, size_t n,
                          Rows rows) {
  size_t total = 0;
  for (size_t k = 0; k < n; ++k) {
    size_t i = rows(k);
    total += src.off_[i + 1] - src.off_[i];
  }
  if (!Fits(total)) return false;
  // Grow geometrically, so a column built by many appends stays linear.
  size_t need = bytes_.size() + total;
  if (need > bytes_.capacity()) {
    bytes_.reserve(std::max(need, 2 * bytes_.capacity()));
  }
  for (size_t k = 0; k < n; ++k) {
    size_t i = rows(k);
    if (!src_nulls.empty() && src_nulls[i] != 0) {
      PushNull();
    } else {
      Push(src.At(i));
    }
  }
  return true;
}

bool EncArena::operator==(const EncArena& o) const {
  if (size() != o.size()) return false;
  for (size_t i = 0; i < size(); ++i) {
    if (KeyAt(i) != o.KeyAt(i) || blob(i) != o.blob(i) ||
        AuxAt(i) != o.AuxAt(i)) {
      return false;
    }
  }
  return true;
}

void ColumnData::Reserve(size_t n, size_t enc_bytes) {
  switch (rep_) {
    case ColumnRep::kInt64:
      i64_.reserve(n);
      break;
    case ColumnRep::kDouble:
      f64_.reserve(n);
      break;
    case ColumnRep::kString:
      str_.reserve(n);
      break;
    case ColumnRep::kEnc:
      enc_.Reserve(n, enc_bytes);
      break;
    case ColumnRep::kCell:
      cells_.reserve(n);
      break;
  }
}

void ColumnData::Clear() {
  i64_.clear();
  f64_.clear();
  str_.clear();
  enc_.Clear();
  cells_.clear();
  nulls_.clear();
  size_ = 0;
}

void ColumnData::EnsureNulls() {
  if (nulls_.empty()) nulls_.assign(size_, 0);
}

void ColumnData::GrowNulls(size_t n) {
  if (!nulls_.empty()) nulls_.insert(nulls_.end(), n, 0);
}

void ColumnData::ResetForAdopt(ColumnRep rep, size_t size,
                               std::vector<uint8_t> nulls) {
  assert(nulls.empty() || nulls.size() == size);
  Clear();
  rep_ = rep;
  size_ = size;
  if (std::any_of(nulls.begin(), nulls.end(),
                  [](uint8_t b) { return b != 0; })) {
    nulls_ = std::move(nulls);
  }
}

void ColumnData::Adopt(std::vector<int64_t> vals, std::vector<uint8_t> nulls) {
  ResetForAdopt(ColumnRep::kInt64, vals.size(), std::move(nulls));
  i64_ = std::move(vals);
}

void ColumnData::Adopt(std::vector<double> vals, std::vector<uint8_t> nulls) {
  ResetForAdopt(ColumnRep::kDouble, vals.size(), std::move(nulls));
  f64_ = std::move(vals);
}

void ColumnData::Adopt(std::vector<std::string> vals,
                       std::vector<uint8_t> nulls) {
  ResetForAdopt(ColumnRep::kString, vals.size(), std::move(nulls));
  str_ = std::move(vals);
}

void ColumnData::Adopt(EncArena vals, std::vector<uint8_t> nulls) {
  ResetForAdopt(ColumnRep::kEnc, vals.size(), std::move(nulls));
  enc_ = std::move(vals);
}

void ColumnData::Adopt(std::vector<Cell> cells) {
  ResetForAdopt(ColumnRep::kCell, cells.size(), {});
  cells_ = std::move(cells);
}

void ColumnData::DemoteToCells() {
  if (rep_ == ColumnRep::kCell) return;
  std::vector<Cell> cells;
  cells.reserve(size_);
  for (size_t i = 0; i < size_; ++i) cells.push_back(GetCell(i));
  cells_ = std::move(cells);
  i64_.clear();
  f64_.clear();
  str_.clear();
  enc_.Clear();
  nulls_.clear();
  rep_ = ColumnRep::kCell;
}

void ColumnData::AppendNull() {
  // kCell holds NULLs as actual null cells; the mask exists only for typed
  // reps (kCell appends never grow it, so the two must not mix).
  if (rep_ == ColumnRep::kCell) {
    cells_.push_back(Cell(Value::Null()));
    size_++;
    return;
  }
  EnsureNulls();
  switch (rep_) {
    case ColumnRep::kInt64:
      i64_.push_back(0);
      break;
    case ColumnRep::kDouble:
      f64_.push_back(0);
      break;
    case ColumnRep::kString:
      str_.emplace_back();
      break;
    case ColumnRep::kEnc:
      enc_.PushNull();
      break;
    case ColumnRep::kCell:
      break;  // handled above
  }
  nulls_.push_back(1);
  size_++;
}

void ColumnData::AppendValue(Value v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (rep_) {
    case ColumnRep::kInt64:
      if (v.is_int()) {
        i64_.push_back(v.AsInt());
        GrowNulls(1);
        size_++;
        return;
      }
      break;
    case ColumnRep::kDouble:
      if (v.is_double()) {
        f64_.push_back(v.AsDouble());
        GrowNulls(1);
        size_++;
        return;
      }
      break;
    case ColumnRep::kString:
      if (v.is_string()) {
        str_.push_back(v.AsString());
        GrowNulls(1);
        size_++;
        return;
      }
      break;
    case ColumnRep::kEnc:
      break;
    case ColumnRep::kCell:
      cells_.push_back(Cell(std::move(v)));
      size_++;
      return;
  }
  DemoteToCells();
  cells_.push_back(Cell(std::move(v)));
  size_++;
}

void ColumnData::AppendEnc(EncView ev) {
  if (rep_ == ColumnRep::kEnc && enc_.Fits(ev.blob.size())) {
    enc_.Push(ev);
    GrowNulls(1);
    size_++;
    return;
  }
  Append(Cell(ev.ToValue()));
}

void ColumnData::Append(Cell c) {
  if (c.is_encrypted()) {
    if (rep_ == ColumnRep::kEnc && enc_.Fits(c.enc().blob.size())) {
      AppendEnc(c.enc());
      return;
    }
    if (rep_ != ColumnRep::kCell) DemoteToCells();
    cells_.push_back(std::move(c));
    size_++;
    return;
  }
  if (rep_ == ColumnRep::kCell) {
    cells_.push_back(std::move(c));
    size_++;
    return;
  }
  AppendValue(std::move(c.plain_mut()));
}

Cell ColumnData::GetCell(size_t i) const {
  assert(i < size_);
  if (IsNull(i)) return Cell(Value::Null());
  switch (rep_) {
    case ColumnRep::kInt64:
      return Cell(Value(i64_[i]));
    case ColumnRep::kDouble:
      return Cell(Value(f64_[i]));
    case ColumnRep::kString:
      return Cell(Value(str_[i]));
    case ColumnRep::kEnc:
      return Cell(enc_.At(i).ToValue());
    case ColumnRep::kCell:
      return cells_[i];
  }
  return Cell();
}

Value ColumnData::GetValue(size_t i) const {
  assert(i < size_);
  if (IsNull(i)) return Value::Null();
  switch (rep_) {
    case ColumnRep::kInt64:
      return Value(i64_[i]);
    case ColumnRep::kDouble:
      return Value(f64_[i]);
    case ColumnRep::kString:
      return Value(str_[i]);
    case ColumnRep::kEnc:
      assert(false && "GetValue on an encrypted column");
      return Value::Null();
    case ColumnRep::kCell:
      return cells_[i].plain();
  }
  return Value::Null();
}

void ColumnData::AppendFrom(const ColumnData& src, size_t i) {
  if (src.rep_ == rep_ && !src.IsNull(i)) {
    switch (rep_) {
      case ColumnRep::kInt64:
        i64_.push_back(src.i64_[i]);
        break;
      case ColumnRep::kDouble:
        f64_.push_back(src.f64_[i]);
        break;
      case ColumnRep::kString:
        str_.push_back(src.str_[i]);
        break;
      case ColumnRep::kEnc:
        AppendEnc(src.enc_.At(i));
        return;
      case ColumnRep::kCell:
        cells_.push_back(src.cells_[i]);
        size_++;
        return;
    }
    GrowNulls(1);
    size_++;
    return;
  }
  Append(src.GetCell(i));
}

void ColumnData::AppendRange(const ColumnData& src, size_t begin, size_t end) {
  if (src.rep_ == rep_) {
    size_t n = end - begin;
    switch (rep_) {
      case ColumnRep::kInt64:
        i64_.insert(i64_.end(), src.i64_.begin() + static_cast<long>(begin),
                    src.i64_.begin() + static_cast<long>(end));
        break;
      case ColumnRep::kDouble:
        f64_.insert(f64_.end(), src.f64_.begin() + static_cast<long>(begin),
                    src.f64_.begin() + static_cast<long>(end));
        break;
      case ColumnRep::kString:
        str_.insert(str_.end(), src.str_.begin() + static_cast<long>(begin),
                    src.str_.begin() + static_cast<long>(end));
        break;
      case ColumnRep::kEnc:
        if (!enc_.AppendRows(src.enc_, src.nulls_, n,
                             [begin](size_t k) { return begin + k; })) {
          for (size_t i = begin; i < end; ++i) Append(src.GetCell(i));
          return;
        }
        break;
      case ColumnRep::kCell:
        cells_.insert(cells_.end(),
                      src.cells_.begin() + static_cast<long>(begin),
                      src.cells_.begin() + static_cast<long>(end));
        size_ += n;
        return;
    }
    if (src.has_nulls()) {
      EnsureNulls();
      nulls_.insert(nulls_.end(),
                    src.nulls_.begin() + static_cast<long>(begin),
                    src.nulls_.begin() + static_cast<long>(end));
    } else {
      GrowNulls(n);
    }
    size_ += n;
    return;
  }
  for (size_t i = begin; i < end; ++i) Append(src.GetCell(i));
}

void ColumnData::AppendSelected(const ColumnData& src, const uint32_t* sel,
                                size_t n) {
  if (src.rep_ == rep_) {
    switch (rep_) {
      case ColumnRep::kInt64: {
        // Gather by direct indexed writes — no per-element capacity check.
        size_t base = i64_.size();
        i64_.resize(base + n);
        int64_t* dst = i64_.data() + base;
        const int64_t* sv = src.i64_.data();
        for (size_t k = 0; k < n; ++k) dst[k] = sv[sel[k]];
        break;
      }
      case ColumnRep::kDouble: {
        size_t base = f64_.size();
        f64_.resize(base + n);
        double* dst = f64_.data() + base;
        const double* sv = src.f64_.data();
        for (size_t k = 0; k < n; ++k) dst[k] = sv[sel[k]];
        break;
      }
      case ColumnRep::kString:
        for (size_t k = 0; k < n; ++k) str_.push_back(src.str_[sel[k]]);
        break;
      case ColumnRep::kEnc:
        if (!enc_.AppendRows(src.enc_, src.nulls_, n,
                             [sel](size_t k) { return sel[k]; })) {
          for (size_t k = 0; k < n; ++k) Append(src.GetCell(sel[k]));
          return;
        }
        break;
      case ColumnRep::kCell:
        for (size_t k = 0; k < n; ++k) cells_.push_back(src.cells_[sel[k]]);
        size_ += n;
        return;
    }
    if (src.has_nulls()) {
      EnsureNulls();
      for (size_t k = 0; k < n; ++k) nulls_.push_back(src.nulls_[sel[k]]);
    } else {
      GrowNulls(n);
    }
    size_ += n;
    return;
  }
  for (size_t k = 0; k < n; ++k) Append(src.GetCell(sel[k]));
}

void ColumnData::AppendRepeated(const ColumnData& src, size_t i, size_t times) {
  for (size_t k = 0; k < times; ++k) AppendFrom(src, i);
}

void ColumnData::MoveAppend(ColumnData&& src) {
  if (src.size_ == 0) return;
  if (size_ == 0 && rep_ == src.rep_) {
    *this = std::move(src);
    src.Clear();
    return;
  }
  if (rep_ == src.rep_) {
    size_t n = src.size_;
    switch (rep_) {
      case ColumnRep::kInt64:
        i64_.insert(i64_.end(), src.i64_.begin(), src.i64_.end());
        break;
      case ColumnRep::kDouble:
        f64_.insert(f64_.end(), src.f64_.begin(), src.f64_.end());
        break;
      case ColumnRep::kString:
        str_.insert(str_.end(), std::make_move_iterator(src.str_.begin()),
                    std::make_move_iterator(src.str_.end()));
        break;
      case ColumnRep::kEnc:
        if (!enc_.AppendRows(src.enc_, src.nulls_, n,
                             [](size_t k) { return k; })) {
          for (size_t i = 0; i < n; ++i) Append(src.GetCell(i));
          src.Clear();
          return;
        }
        break;
      case ColumnRep::kCell:
        cells_.insert(cells_.end(),
                      std::make_move_iterator(src.cells_.begin()),
                      std::make_move_iterator(src.cells_.end()));
        size_ += n;
        src.Clear();
        return;
    }
    if (src.has_nulls()) {
      EnsureNulls();
      nulls_.insert(nulls_.end(), src.nulls_.begin(), src.nulls_.end());
    } else {
      GrowNulls(n);
    }
    size_ += n;
    src.Clear();
    return;
  }
  for (size_t i = 0; i < src.size_; ++i) Append(src.GetCell(i));
  src.Clear();
}

uint64_t ColumnData::ByteSize() const {
  uint64_t total = 0;
  switch (rep_) {
    case ColumnRep::kInt64:
    case ColumnRep::kDouble:
      if (has_nulls()) {
        for (size_t i = 0; i < size_; ++i) total += IsNull(i) ? 1 : 8;
      } else {
        total = 8 * size_;
      }
      return total;
    case ColumnRep::kString:
      for (size_t i = 0; i < size_; ++i) {
        total += IsNull(i) ? 1 : str_[i].size() + 4;
      }
      return total;
    case ColumnRep::kEnc: {
      // Null slots hold empty blobs: blobs + 8 per ciphertext + 1 per NULL.
      size_t nulls = 0;
      for (size_t i = 0; i < size_ && has_nulls(); ++i) nulls += IsNull(i);
      return enc_.bytes() + 8 * (size_ - nulls) + nulls;
    }
    case ColumnRep::kCell:
      for (const Cell& c : cells_) total += c.ByteSize();
      return total;
  }
  return total;
}

ColumnData ColumnFromCells(std::vector<Cell> cells) {
  ColumnRep rep = ColumnRep::kCell;
  for (const Cell& c : cells) {
    if (c.is_encrypted()) {
      rep = ColumnRep::kEnc;
      break;
    }
    const Value& v = c.plain();
    if (v.is_null()) continue;
    if (v.is_int()) {
      rep = ColumnRep::kInt64;
    } else if (v.is_double()) {
      rep = ColumnRep::kDouble;
    } else {
      rep = ColumnRep::kString;
    }
    break;
  }
  ColumnData out(rep);
  out.Reserve(cells.size());
  for (Cell& c : cells) out.Append(std::move(c));
  return out;
}

ColumnData ColumnFromEnc(const std::vector<EncValue>& encs) {
  ColumnData out(ColumnRep::kEnc);
  for (const EncValue& ev : encs) out.AppendEnc(ev);
  return out;
}

ColumnData ConcatColumns(std::vector<ColumnData> parts) {
  if (parts.empty()) return ColumnData();
  ColumnData out = std::move(parts[0]);
  for (size_t k = 1; k < parts.size(); ++k) {
    out.MoveAppend(std::move(parts[k]));
  }
  // ColumnFromCells takes the rep of the first non-null cell, or kCell when
  // there is none; a column whose parts demoted, or that holds no non-null
  // row, is rebuilt from its cells to match.
  bool any_value = false;
  for (size_t i = 0; i < out.size() && !any_value; ++i) {
    any_value = !out.IsNull(i);
  }
  if (out.rep() == ColumnRep::kCell || !any_value) {
    out.DemoteToCells();
    return ColumnFromCells(std::move(out.cells()));
  }
  return out;
}

namespace {

Status KeyUnsupported() {
  return Status::Unsupported(
      "RND/HOM ciphertexts cannot serve as grouping or join keys");
}

bool KeyableEnc(EncKey k) {
  return k.scheme == EncScheme::kDeterministic || k.scheme == EncScheme::kOpe;
}

}  // namespace

Status ColumnDict::EncodeRange(size_t begin, size_t end, uint32_t* codes) {
  const ColumnData& c = *col_;
  if (c.rep() == ColumnRep::kString) {
    const std::vector<std::string>& vals = c.str();
    for (size_t r = begin; r < end; ++r) {
      if (c.IsNull(r)) {
        codes[r - begin] = 0;
        continue;
      }
      const std::string& s = vals[r];
      codes[r - begin] = index_.FindOrInsert(
          HashBytes(s.data(), s.size()),
          [&](uint32_t id) { return vals[rep_rows_[id]] == s; },
          [&] {
            rep_rows_.push_back(static_cast<uint32_t>(r));
            return static_cast<uint32_t>(rep_rows_.size() - 1);
          });
    }
    return Status::OK();
  }
  if (c.rep() == ColumnRep::kEnc) {
    const EncArena& vals = c.enc();
    for (size_t r = begin; r < end; ++r) {
      if (c.IsNull(r)) {
        codes[r - begin] = 0;
        continue;
      }
      if (!KeyableEnc(vals.KeyAt(r))) return KeyUnsupported();
      std::string_view blob = vals.blob(r);
      codes[r - begin] = index_.FindOrInsert(
          HashBytes(blob.data(), blob.size()),
          [&](uint32_t id) { return vals.blob(rep_rows_[id]) == blob; },
          [&] {
            rep_rows_.push_back(static_cast<uint32_t>(r));
            return static_cast<uint32_t>(rep_rows_.size() - 1);
          });
    }
    return Status::OK();
  }
  return Status::Internal("dictionary over a non-string/ciphertext column");
}

Status ColumnDict::ProbeRange(const ColumnData& probe, size_t begin,
                              size_t end, uint32_t* codes) const {
  if (probe.rep() != col_->rep()) {
    return Status::Internal("dictionary probe over a mismatched column rep");
  }
  if (probe.rep() == ColumnRep::kString) {
    const std::vector<std::string>& own = col_->str();
    const std::vector<std::string>& vals = probe.str();
    for (size_t r = begin; r < end; ++r) {
      if (probe.IsNull(r)) {
        codes[r - begin] = 0;
        continue;
      }
      const std::string& s = vals[r];
      codes[r - begin] = index_.Find(
          HashBytes(s.data(), s.size()),
          [&](uint32_t id) { return own[rep_rows_[id]] == s; });
    }
    return Status::OK();
  }
  if (probe.rep() == ColumnRep::kEnc) {
    const EncArena& own = col_->enc();
    const EncArena& vals = probe.enc();
    for (size_t r = begin; r < end; ++r) {
      if (probe.IsNull(r)) {
        codes[r - begin] = 0;
        continue;
      }
      if (!KeyableEnc(vals.KeyAt(r))) return KeyUnsupported();
      std::string_view blob = vals.blob(r);
      codes[r - begin] = index_.Find(
          HashBytes(blob.data(), blob.size()),
          [&](uint32_t id) { return own.blob(rep_rows_[id]) == blob; });
    }
    return Status::OK();
  }
  return Status::Internal("dictionary over a non-string/ciphertext column");
}

Status AppendKeyBytes(const ColumnData& col, size_t r, std::string* out) {
  if (col.IsNull(r)) {
    out->push_back('N');
    return Status::OK();
  }
  switch (col.rep()) {
    case ColumnRep::kInt64: {
      out->push_back('I');
      int64_t v = col.i64()[r];
      out->append(reinterpret_cast<const char*>(&v), sizeof(v));
      return Status::OK();
    }
    case ColumnRep::kDouble: {
      out->push_back('D');
      double v = col.f64()[r];
      out->append(reinterpret_cast<const char*>(&v), sizeof(v));
      return Status::OK();
    }
    case ColumnRep::kString:
      out->push_back('S');
      out->append(col.str()[r]);
      return Status::OK();
    case ColumnRep::kEnc: {
      if (!KeyableEnc(col.enc().KeyAt(r))) return KeyUnsupported();
      std::string_view blob = col.enc().blob(r);
      out->append(blob.data(), blob.size());
      return Status::OK();
    }
    case ColumnRep::kCell: {
      MPQ_ASSIGN_OR_RETURN(std::string k, CellGroupKey(col.cells()[r]));
      out->append(k);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable column rep");
}

}  // namespace mpq
