#include "common/value.h"

#include <cstring>
#include <sstream>

namespace mpq {

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
  }
  return "unknown";
}

namespace {

int TypeTag(const Value& v) {
  if (v.is_null()) return 0;
  if (v.is_int() || v.is_double()) return 1;
  return 2;
}

}  // namespace

int Value::Compare(const Value& other) const {
  int ta = TypeTag(*this), tb = TypeTag(other);
  if (ta != tb) return ta < tb ? -1 : 1;
  if (is_null()) return 0;
  if (ta == 1) {
    double a = AsDouble(), b = other.AsDouble();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  int c = AsString().compare(other.AsString());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

std::string Value::Serialize() const {
  std::string out;
  if (is_null()) {
    out.push_back('N');
  } else if (is_int()) {
    out.push_back('I');
    int64_t v = AsInt();
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  } else if (is_double()) {
    out.push_back('D');
    double v = std::get<double>(v_);
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  } else {
    out.push_back('S');
    out.append(AsString());
  }
  return out;
}

Result<Value> Value::Deserialize(std::string_view bytes) {
  if (bytes.empty()) return Status::InvalidArgument("empty value bytes");
  char tag = bytes[0];
  switch (tag) {
    case 'N':
      return Value::Null();
    case 'I': {
      if (bytes.size() != 1 + sizeof(int64_t))
        return Status::InvalidArgument("bad int64 value bytes");
      int64_t v;
      std::memcpy(&v, bytes.data() + 1, sizeof(v));
      return Value(v);
    }
    case 'D': {
      if (bytes.size() != 1 + sizeof(double))
        return Status::InvalidArgument("bad double value bytes");
      double v;
      std::memcpy(&v, bytes.data() + 1, sizeof(v));
      return Value(v);
    }
    case 'S':
      return Value(std::string(bytes.substr(1)));
    default:
      return Status::InvalidArgument("unknown value tag");
  }
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) {
    std::ostringstream os;
    os << std::get<double>(v_);
    return os.str();
  }
  return "'" + AsString() + "'";
}

size_t Value::ByteSize() const {
  if (is_null()) return 1;
  if (is_int()) return 8;
  if (is_double()) return 8;
  return AsString().size() + 4;
}

uint64_t Value::Hash() const {
  // FNV-1a over the canonical serialization.
  std::string bytes = Serialize();
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace mpq
