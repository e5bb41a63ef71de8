#include "crypto/enc_value.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "crypto/cipher.h"
#include "crypto/ope.h"

namespace mpq {

std::string EncValue::ToString() const {
  std::string out = "<";
  out += EncSchemeName(scheme);
  out += ":k";
  out += std::to_string(key_id);
  out += ":";
  static const char kHex[] = "0123456789abcdef";
  size_t n = std::min<size_t>(blob.size(), 6);
  for (size_t i = 0; i < n; ++i) {
    unsigned char c = static_cast<unsigned char>(blob[i]);
    out += kHex[c >> 4];
    out += kHex[c & 0xf];
  }
  out += "…>";
  return out;
}

void EncryptSerializedTo(EncScheme scheme, const KeyMaterial& keys,
                         uint64_t fresh_nonce, std::string_view ser,
                         char* out) {
  uint64_t nonce = scheme == EncScheme::kDeterministic
                       ? DetNonce(keys.sym, ser)
                       : fresh_nonce;
  SymEncryptTo(keys.sym, nonce, ser, out);
}

Status EncryptNumericTo(EncScheme scheme, const KeyMaterial& keys,
                        uint64_t fresh_nonce, const Value& v, char* out) {
  if (!v.is_int() && !v.is_double()) {
    return Status::Unsupported(scheme == EncScheme::kOpe
                                   ? "OPE supports numeric values only"
                                   : "Paillier supports numeric values only");
  }
  // Doubles travel as fixed-point integers under both schemes.
  int64_t m = v.is_int() ? v.AsInt()
                         : static_cast<int64_t>(std::llround(
                               v.AsDouble() *
                               static_cast<double>(kFixedPointScale)));
  if (scheme == EncScheme::kOpe) {
    OpeEncryptIntTo(keys.ope, m, out);
    return Status::OK();
  }
  uint64_t encoded = PaillierEncodeSigned(keys.paillier, m);
  uint128 c = keys.hom_precomp != nullptr && keys.hom_precomp->valid()
                  ? keys.hom_precomp->Encrypt(encoded, fresh_nonce | 1)
                  : PaillierEncrypt(keys.paillier, encoded, fresh_nonce | 1);
  std::memcpy(out, &c, 16);  // PaillierCipherToBytes' layout
  return Status::OK();
}

Result<EncValue> EncryptValue(const Value& v, EncScheme scheme, uint64_t key_id,
                              const KeyMaterial& keys, uint64_t fresh_nonce) {
  EncValue ev;
  ev.scheme = scheme;
  ev.key_id = key_id;
  if (scheme == EncScheme::kRandom || scheme == EncScheme::kDeterministic) {
    std::string ser = v.Serialize();
    ev.blob.resize(CiphertextSize(scheme, ser.size()));
    EncryptSerializedTo(scheme, keys, fresh_nonce, ser, ev.blob.data());
    return ev;
  }
  ev.blob.resize(CiphertextSize(scheme, 0));
  MPQ_RETURN_NOT_OK(
      EncryptNumericTo(scheme, keys, fresh_nonce, v, ev.blob.data()));
  return ev;
}

Result<Value> DecryptValue(EncView ev, const KeyMaterial& keys,
                           DataType type) {
  switch (ev.scheme) {
    case EncScheme::kRandom:
    case EncScheme::kDeterministic: {
      if (ev.blob.size() < 8) {
        return Status::InvalidArgument("ciphertext too short");
      }
      // Numeric plaintexts serialize to 9 bytes: decrypt them on the stack.
      size_t len = ev.blob.size() - 8;
      char small[16];
      std::string large;
      char* plain = small;
      if (len > sizeof(small)) {
        large.resize(len);
        plain = large.data();
      }
      SymDecryptTo(keys.sym, ev.blob, plain);
      return Value::Deserialize(std::string_view(plain, len));
    }
    case EncScheme::kOpe:
      return OpeDecryptValue(keys.ope, ev.blob, type);
    case EncScheme::kPaillier: {
      MPQ_ASSIGN_OR_RETURN(uint128 c, PaillierCipherFromBytes(ev.blob));
      bool fast = keys.hom_precomp != nullptr && keys.hom_precomp->valid();
      MPQ_ASSIGN_OR_RETURN(uint64_t m,
                           fast ? keys.hom_precomp->Decrypt(c)
                                : PaillierDecrypt(keys.paillier, c));
      int64_t decoded = PaillierDecodeSigned(keys.paillier, m);
      if (type == DataType::kDouble) {
        return Value(static_cast<double>(decoded) /
                     static_cast<double>(kFixedPointScale));
      }
      return Value(decoded);
    }
  }
  return Status::Internal("unreachable scheme");
}

Result<bool> CompareEnc(CmpOp op, EncView a, EncView b) {
  if (a.key() != b.key()) {
    return Status::Unsupported(
        "cannot compare ciphertexts under different schemes or keys");
  }
  switch (a.scheme) {
    case EncScheme::kDeterministic: {
      if (op == CmpOp::kEq) return a.blob == b.blob;
      if (op == CmpOp::kNe) return a.blob != b.blob;
      return Status::Unsupported(
          "deterministic ciphertexts support only equality comparison");
    }
    case EncScheme::kOpe: {
      int c = a.blob.compare(b.blob);
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
      return Status::Internal("unreachable");
    }
    case EncScheme::kRandom:
      return Status::Unsupported("randomized ciphertexts are not comparable");
    case EncScheme::kPaillier:
      return Status::Unsupported("Paillier ciphertexts are not comparable");
  }
  return Status::Internal("unreachable scheme");
}

Result<bool> CompareCells(CmpOp op, const Cell& a, const Cell& b) {
  if (a.is_plain() && b.is_plain()) {
    return EvalCmp(op, a.plain(), b.plain());
  }
  if (a.is_plain() != b.is_plain()) {
    return Status::Unsupported(
        "cannot compare a plaintext cell with an encrypted cell");
  }
  return CompareEnc(op, a.enc(), b.enc());
}

Result<std::string> CellGroupKey(const Cell& c) {
  if (c.is_plain()) return c.plain().Serialize();
  const EncValue& ev = c.enc();
  if (ev.scheme == EncScheme::kDeterministic || ev.scheme == EncScheme::kOpe) {
    return ev.blob;
  }
  return Status::Unsupported(
      "RND/HOM ciphertexts cannot serve as grouping or join keys");
}

}  // namespace mpq
