#include "crypto/column_codec.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <utility>

namespace mpq {

namespace {

Status NoMaterial(uint64_t key_id, const char* op) {
  return Status::NotFound("column codec for key " + std::to_string(key_id) +
                          " holds only the public modulus: cannot " + op);
}

}  // namespace

ColumnCodec::ColumnCodec(const KeyMaterial& km)
    : has_material_(true), key_id_(km.key_id), km_(km), sum_(km.paillier.n) {}

ColumnCodec::ColumnCodec(uint64_t key_id, uint64_t public_modulus)
    : key_id_(key_id), sum_(public_modulus) {
  km_.key_id = key_id;
  km_.paillier.n = public_modulus;
}

namespace {

/// Length of the canonical serialization (Value::Serialize) of plaintext
/// row `r`; a ciphertext cell, which EncryptSpan rejects, counts 0.
size_t SerializedSize(const ColumnData& src, size_t r) {
  if (src.IsNull(r)) return 1;
  switch (src.rep()) {
    case ColumnRep::kInt64:
    case ColumnRep::kDouble:
      return 9;
    case ColumnRep::kString:
      return 1 + src.str()[r].size();
    case ColumnRep::kEnc:
      return 0;
    case ColumnRep::kCell: {
      const Cell& c = src.cells()[r];
      if (c.is_encrypted()) return 0;
      const Value& v = c.plain();
      if (v.is_null()) return 1;
      return v.is_string() ? 1 + v.AsString().size() : 9;
    }
  }
  return 0;
}

/// Row `r`'s canonical serialization, as SerializedSize counts it: typed
/// rows are written to `buf` (9 bytes), strings and cells to `scratch`.
Status SerializeRow(const ColumnData& src, size_t r, char* buf,
                    std::string* scratch, std::string_view* out) {
  if (!src.IsNull(r) && (src.rep() == ColumnRep::kInt64 ||
                         src.rep() == ColumnRep::kDouble)) {
    buf[0] = src.rep() == ColumnRep::kInt64 ? 'I' : 'D';
    std::memcpy(buf + 1,
                src.rep() == ColumnRep::kInt64
                    ? static_cast<const void*>(&src.i64()[r])
                    : static_cast<const void*>(&src.f64()[r]),
                8);
    *out = std::string_view(buf, 9);
    return Status::OK();
  }
  scratch->clear();
  MPQ_RETURN_NOT_OK(AppendKeyBytes(src, r, scratch));
  *out = *scratch;
  return Status::OK();
}

}  // namespace

Result<EncArena> ColumnCodec::SizeEncrypt(const ColumnData& src,
                                          EncScheme scheme) const {
  std::vector<uint32_t> off(src.size() + 1);
  uint64_t total = 0;
  for (size_t r = 0; r < src.size(); ++r) {
    total += CiphertextSize(scheme, SerializedSize(src, r));
    if (total > EncArena::kMaxBytes) {
      return Status::InvalidArgument(
          "ciphertext column exceeds the arena's 4 GiB addressing");
    }
    off[r + 1] = static_cast<uint32_t>(total);
  }
  return EncArena::Sized(EncKey{scheme, key_id_}, std::move(off));
}

Status ColumnCodec::EncryptSpan(const ColumnData& src, size_t begin,
                                size_t end, EncScheme scheme,
                                uint64_t nonce_base, EncArena* out) const {
  if (!has_material_) return NoMaterial(key_id_, "encrypt");
  const bool sym =
      scheme == EncScheme::kRandom || scheme == EncScheme::kDeterministic;
  char buf[9];
  std::string scratch;  // reused across rows
  for (size_t r = begin; r < end; ++r) {
    if (src.rep() == ColumnRep::kEnc ||
        (src.rep() == ColumnRep::kCell && src.cells()[r].is_encrypted())) {
      return Status::InvalidArgument("cannot encrypt a ciphertext");
    }
    if (sym) {
      std::string_view ser;
      MPQ_RETURN_NOT_OK(SerializeRow(src, r, buf, &scratch, &ser));
      assert(CiphertextSize(scheme, ser.size()) == out->blob(r).size());
      EncryptSerializedTo(scheme, km_, nonce_base + r, ser, out->Slot(r));
    } else {
      MPQ_RETURN_NOT_OK(EncryptNumericTo(scheme, km_, nonce_base + r,
                                         src.GetValue(r), out->Slot(r)));
    }
  }
  return Status::OK();
}

Status ColumnCodec::DecryptSpan(const ColumnData& src, size_t begin,
                                size_t end, DataType type, bool hom_avg,
                                ColumnData* out) const {
  if (!has_material_) return NoMaterial(key_id_, "decrypt");
  out->Reserve(out->size() + (end - begin));
  for (size_t r = begin; r < end; ++r) {
    if (src.IsNull(r)) {
      out->AppendNull();
      continue;
    }
    if (src.rep() != ColumnRep::kEnc &&
        !(src.rep() == ColumnRep::kCell && src.cells()[r].is_encrypted())) {
      out->Append(src.GetCell(r));  // plaintext inside a ciphertext column
      continue;
    }
    EncView ev = src.EncAt(r);
    MPQ_ASSIGN_OR_RETURN(Value v, DecryptValue(ev, km_, type));
    if (hom_avg) {
      v = Value(v.AsDouble() /
                static_cast<double>(std::max<int64_t>(ev.aux, 1)));
    }
    out->AppendValue(std::move(v));
  }
  return Status::OK();
}

Result<uint128> ColumnCodec::FoldRows(const ColumnData& col,
                                      const uint32_t* rows, size_t n) {
  // Stage the ciphertexts contiguously, then fold with one batch
  // accumulation: domain entry, n reductions, domain exit.
  scratch_.clear();
  scratch_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    MPQ_ASSIGN_OR_RETURN(uint128 c,
                         PaillierCipherFromBytes(col.EncAt(rows[i]).blob));
    scratch_.push_back(c);
  }
  sum_.Reset();
  sum_.AccumulateMany(scratch_.data(), scratch_.size());
  return sum_.Finalize();
}

}  // namespace mpq
