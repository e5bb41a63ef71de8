#include "exec/table.h"

#include <cstring>

namespace mpq {

ColumnRep RepForColumn(const ExecColumn& col) {
  return col.encrypted ? ColumnRep::kEnc : RepForType(col.type);
}

Table::Table(std::vector<ExecColumn> columns) : columns_(std::move(columns)) {
  data_.reserve(columns_.size());
  for (const ExecColumn& c : columns_) {
    data_.push_back(std::make_shared<ColumnData>(RepForColumn(c)));
  }
}

int Table::ColIndex(AttrId attr) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].attr == attr) return static_cast<int>(i);
  }
  return -1;
}

void Table::AddColumn(ExecColumn col, ColumnData d) {
  AddColumn(std::move(col), std::make_shared<ColumnData>(std::move(d)));
}

void Table::AddColumn(ExecColumn col, std::shared_ptr<ColumnData> d) {
  assert((columns_.empty() || d->size() == num_rows_) &&
         "AddColumn: row count mismatch");
  if (columns_.empty()) num_rows_ = d->size();
  columns_.push_back(std::move(col));
  data_.push_back(std::move(d));
}

void Table::AddRow(std::vector<Cell> row) {
  assert(row.size() == columns_.size() && "AddRow: arity mismatch");
  for (size_t c = 0; c < data_.size(); ++c) {
    col_mut(c).Append(std::move(row[c]));
  }
  num_rows_++;
}

std::vector<Cell> Table::row(size_t i) const {
  std::vector<Cell> out;
  out.reserve(data_.size());
  for (const auto& col : data_) out.push_back(col->GetCell(i));
  return out;
}

void Table::AppendRowFrom(const Table& src, size_t r) {
  assert(src.num_columns() == num_columns());
  for (size_t c = 0; c < data_.size(); ++c) {
    col_mut(c).AppendFrom(*src.data_[c], r);
  }
  num_rows_++;
}

void Table::ReserveRows(size_t n) {
  for (size_t c = 0; c < data_.size(); ++c) col_mut(c).Reserve(n);
}

uint64_t Table::ByteSize() const {
  uint64_t total = 0;
  for (const auto& col : data_) total += col->ByteSize();
  return total;
}

std::string Table::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += " | ";
    out += columns_[i].name;
    if (columns_[i].encrypted) {
      out += "*";
    }
  }
  out += "\n";
  size_t n = std::min(max_rows, num_rows_);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < data_.size(); ++c) {
      if (c > 0) out += " | ";
      out += data_[c]->GetCell(r).ToString();
    }
    out += "\n";
  }
  if (num_rows_ > n) {
    out += "... (" + std::to_string(num_rows_ - n) + " more rows)\n";
  }
  return out;
}

// ------------------------------------------------------------------ serde ---
//
// Column-at-a-time wire format: a small header, then each column's metadata
// followed by its contiguous payload (typed vector, optional null mask).
// Little-endian throughout; strings and blobs are length-prefixed.

namespace {

constexpr char kMagic[4] = {'M', 'P', 'Q', 'C'};
// v2 added the per-string-column encoding byte (plain vs dictionary).
constexpr uint8_t kVersion = 2;

// String-column payload encodings.
constexpr uint8_t kEncodingPlain = 0;
constexpr uint8_t kEncodingDict = 1;

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutBytes(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutEnc(std::string* out, EncView ev) {
  PutU8(out, static_cast<uint8_t>(ev.scheme));
  PutU64(out, ev.key_id);
  PutU64(out, static_cast<uint64_t>(ev.aux));
  PutU32(out, static_cast<uint32_t>(ev.blob.size()));
  out->append(ev.blob.data(), ev.blob.size());
}

/// Bounds-checked reader over the serialized bytes.
struct Reader {
  const std::string& buf;
  size_t pos = 0;

  bool Take(void* dst, size_t n) {
    if (pos + n > buf.size()) return false;
    std::memcpy(dst, buf.data() + pos, n);
    pos += n;
    return true;
  }
  bool U8(uint8_t* v) { return Take(v, 1); }
  bool U32(uint32_t* v) { return Take(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Take(v, sizeof(*v)); }
  bool Bytes(std::string* s) {
    uint32_t n;
    if (!U32(&n) || pos + n > buf.size()) return false;
    s->assign(buf.data() + pos, n);
    pos += n;
    return true;
  }
  bool Enc(EncValue* ev) {
    uint8_t scheme;
    uint64_t aux;
    if (!U8(&scheme) || scheme > static_cast<uint8_t>(EncScheme::kPaillier) ||
        !U64(&ev->key_id) || !U64(&aux) || !Bytes(&ev->blob)) {
      return false;
    }
    ev->scheme = static_cast<EncScheme>(scheme);
    ev->aux = static_cast<int64_t>(aux);
    return true;
  }
};

Status Corrupt() {
  return Status::InvalidArgument("corrupt serialized table");
}

}  // namespace

std::string Table::SerializeColumns() const {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutU8(&out, kVersion);
  PutU32(&out, static_cast<uint32_t>(columns_.size()));
  PutU64(&out, num_rows_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    const ExecColumn& col = columns_[c];
    PutU32(&out, col.attr);
    PutBytes(&out, col.name);
    PutU8(&out, static_cast<uint8_t>(col.type));
    PutU8(&out, col.encrypted ? 1 : 0);
    PutU8(&out, static_cast<uint8_t>(col.scheme));
    PutU64(&out, col.key_id);
    PutU8(&out, col.hom_avg ? 1 : 0);

    const ColumnData& d = *data_[c];
    PutU8(&out, static_cast<uint8_t>(d.rep()));
    PutU8(&out, d.has_nulls() ? 1 : 0);
    if (d.has_nulls()) {
      for (size_t r = 0; r < d.size(); ++r) {
        PutU8(&out, d.IsNull(r) ? 1 : 0);
      }
    }
    switch (d.rep()) {
      case ColumnRep::kInt64:
        out.append(reinterpret_cast<const char*>(d.i64().data()), 8 * d.size());
        break;
      case ColumnRep::kDouble:
        out.append(reinterpret_cast<const char*>(d.f64().data()), 8 * d.size());
        break;
      case ColumnRep::kString: {
        // Dictionary-encode when the codes + distinct values are strictly
        // smaller than the plain payload — a deterministic function of the
        // column content, so the frame (and its byte count) is identical at
        // any thread count.
        ColumnDict dict(&d);
        std::vector<uint32_t> codes(d.size());
        uint64_t plain_cost = 0;
        for (const std::string& s : d.str()) plain_cost += 4 + s.size();
        uint64_t dict_cost = 4 + 4 * static_cast<uint64_t>(d.size());
        if (dict.EncodeRange(0, d.size(), codes.data()).ok()) {
          for (uint32_t k = 0; k < dict.size(); ++k) {
            dict_cost += 4 + d.str()[dict.RepRow(k)].size();
          }
        } else {
          dict_cost = plain_cost + 1;  // unreachable for kString; be safe
        }
        if (dict_cost < plain_cost) {
          PutU8(&out, kEncodingDict);
          PutU32(&out, static_cast<uint32_t>(dict.size()));
          for (uint32_t k = 0; k < dict.size(); ++k) {
            PutBytes(&out, d.str()[dict.RepRow(k)]);
          }
          out.append(reinterpret_cast<const char*>(codes.data()),
                     4 * codes.size());
        } else {
          PutU8(&out, kEncodingPlain);
          for (const std::string& s : d.str()) PutBytes(&out, s);
        }
        break;
      }
      case ColumnRep::kEnc:
        // A NULL row's record is the default ciphertext.
        for (size_t r = 0; r < d.size(); ++r) {
          PutEnc(&out, d.IsNull(r) ? EncView() : d.enc().At(r));
        }
        break;
      case ColumnRep::kCell:
        for (const Cell& cell : d.cells()) {
          PutU8(&out, cell.is_encrypted() ? 1 : 0);
          if (cell.is_encrypted()) {
            PutEnc(&out, cell.enc());
          } else {
            PutBytes(&out, cell.plain().Serialize());
          }
        }
        break;
    }
  }
  return out;
}

Result<Table> Table::DeserializeColumns(const std::string& bytes) {
  Reader r{bytes};
  char magic[4];
  uint8_t version;
  uint32_t num_cols;
  uint64_t num_rows;
  if (!r.Take(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 || !r.U8(&version) ||
      version != kVersion || !r.U32(&num_cols) || !r.U64(&num_rows)) {
    return Corrupt();
  }
  // Every row of a materialized column costs at least one payload byte, so
  // a row count beyond the buffer size is corrupt — reject before any
  // row-count-sized allocation or row-count-sized downstream work. (This
  // also caps the degenerate zero-column frame, whose row count nothing
  // else bounds.)
  if (num_rows > bytes.size()) return Corrupt();
  Table t;
  for (uint32_t c = 0; c < num_cols; ++c) {
    ExecColumn col;
    uint8_t type, encrypted, scheme, hom_avg;
    if (!r.U32(&col.attr) || !r.Bytes(&col.name) || !r.U8(&type) ||
        !r.U8(&encrypted) || !r.U8(&scheme) || !r.U64(&col.key_id) ||
        !r.U8(&hom_avg)) {
      return Corrupt();
    }
    // Enum fields must decode to a declared enumerator: a garbage type or
    // scheme byte would otherwise flow into every downstream switch over
    // column metadata.
    if (type > static_cast<uint8_t>(DataType::kString) ||
        scheme > static_cast<uint8_t>(EncScheme::kPaillier)) {
      return Corrupt();
    }
    col.type = static_cast<DataType>(type);
    col.encrypted = encrypted != 0;
    col.scheme = static_cast<EncScheme>(scheme);
    col.hom_avg = hom_avg != 0;

    uint8_t rep, has_nulls;
    if (!r.U8(&rep) || !r.U8(&has_nulls)) return Corrupt();
    std::vector<uint8_t> nulls;
    if (has_nulls) {
      nulls.resize(num_rows);
      if (!r.Take(nulls.data(), num_rows)) return Corrupt();
    }
    ColumnData d(static_cast<ColumnRep>(rep));
    d.Reserve(num_rows);
    auto row_null = [&](uint64_t i) { return has_nulls && nulls[i] != 0; };
    switch (static_cast<ColumnRep>(rep)) {
      case ColumnRep::kInt64:
        for (uint64_t i = 0; i < num_rows; ++i) {
          int64_t v;
          if (!r.Take(&v, sizeof(v))) return Corrupt();
          if (row_null(i)) {
            d.AppendNull();
          } else {
            d.AppendValue(Value(v));
          }
        }
        break;
      case ColumnRep::kDouble:
        for (uint64_t i = 0; i < num_rows; ++i) {
          double v;
          if (!r.Take(&v, sizeof(v))) return Corrupt();
          if (row_null(i)) {
            d.AppendNull();
          } else {
            d.AppendValue(Value(v));
          }
        }
        break;
      case ColumnRep::kString: {
        uint8_t encoding;
        if (!r.U8(&encoding)) return Corrupt();
        if (encoding == kEncodingDict) {
          uint32_t num_values;
          if (!r.U32(&num_values) || num_values > bytes.size()) {
            return Corrupt();
          }
          std::vector<std::string> values(num_values);
          for (uint32_t k = 0; k < num_values; ++k) {
            if (!r.Bytes(&values[k])) return Corrupt();
          }
          for (uint64_t i = 0; i < num_rows; ++i) {
            uint32_t code;
            if (!r.U32(&code)) return Corrupt();
            if (row_null(i)) {
              d.AppendNull();  // the code of a null row is padding
            } else if (code >= num_values) {
              return Corrupt();
            } else {
              d.AppendValue(Value(values[code]));
            }
          }
        } else if (encoding == kEncodingPlain) {
          for (uint64_t i = 0; i < num_rows; ++i) {
            std::string s;
            if (!r.Bytes(&s)) return Corrupt();
            if (row_null(i)) {
              d.AppendNull();
            } else {
              d.AppendValue(Value(std::move(s)));
            }
          }
        } else {
          return Corrupt();
        }
        break;
      }
      case ColumnRep::kEnc:
        for (uint64_t i = 0; i < num_rows; ++i) {
          EncValue ev;
          if (!r.Enc(&ev)) return Corrupt();
          if (row_null(i)) {
            d.AppendNull();
          } else {
            d.Append(Cell(std::move(ev)));
          }
        }
        break;
      case ColumnRep::kCell:
        for (uint64_t i = 0; i < num_rows; ++i) {
          uint8_t is_enc;
          if (!r.U8(&is_enc)) return Corrupt();
          if (is_enc) {
            EncValue ev;
            if (!r.Enc(&ev)) return Corrupt();
            d.Append(Cell(std::move(ev)));
          } else {
            std::string s;
            if (!r.Bytes(&s)) return Corrupt();
            MPQ_ASSIGN_OR_RETURN(Value v, Value::Deserialize(s));
            d.Append(Cell(std::move(v)));
          }
        }
        break;
      default:
        return Corrupt();
    }
    if (d.size() != num_rows) return Corrupt();
    t.AddColumn(std::move(col), std::move(d));
  }
  if (num_cols == 0) t.num_rows_ = num_rows;
  if (r.pos != bytes.size()) return Corrupt();
  return t;
}

}  // namespace mpq
