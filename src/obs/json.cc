#include "obs/json.h"

#include <cassert>
#include <cmath>
#include <cstdio>

namespace tdr::obs {

Json::Json(std::uint64_t value) : type_(Type::kNumber) {
  if (value <= static_cast<std::uint64_t>(INT64_MAX)) {
    int_ = static_cast<std::int64_t>(value);
    is_int_ = true;
  } else {
    num_ = static_cast<double>(value);
  }
}

Json& Json::Set(std::string_view key, Json value) {
  assert(type_ == Type::kObject);
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::string(key), std::move(value));
  return *this;
}

const Json* Json::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::Push(Json value) {
  assert(type_ == Type::kArray);
  items_.push_back(std::move(value));
  return *this;
}

const Json* Json::Item(std::size_t index) const {
  if (type_ != Type::kArray || index >= items_.size()) return nullptr;
  return &items_[index];
}

std::int64_t Json::AsInt(std::int64_t fallback) const {
  if (type_ != Type::kNumber) return fallback;
  return is_int_ ? int_ : static_cast<std::int64_t>(num_);
}

std::size_t Json::size() const {
  switch (type_) {
    case Type::kObject:
      return members_.size();
    case Type::kArray:
      return items_.size();
    default:
      return 0;
  }
}

void Json::AppendEscaped(std::string* out, std::string_view s) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

namespace {

void Indent(std::string* out, int indent, int depth) {
  if (indent <= 0) return;
  out->push_back('\n');
  out->append(static_cast<std::size_t>(indent) *
                  static_cast<std::size_t>(depth),
              ' ');
}

}  // namespace

void Json::DumpTo(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kNumber: {
      char buf[40];
      if (is_int_) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(int_));
      } else if (!std::isfinite(num_)) {
        // JSON has no inf/nan; null is the least-lossy encoding.
        std::snprintf(buf, sizeof(buf), "null");
      } else if (num_ == std::floor(num_) && std::fabs(num_) < 9e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", num_);
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", num_);
      }
      *out += buf;
      return;
    }
    case Type::kString:
      AppendEscaped(out, str_);
      return;
    case Type::kArray: {
      if (items_.empty()) {
        *out += "[]";
        return;
      }
      out->push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out->push_back(',');
        Indent(out, indent, depth + 1);
        items_[i].DumpTo(out, indent, depth + 1);
      }
      Indent(out, indent, depth);
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      if (members_.empty()) {
        *out += "{}";
        return;
      }
      out->push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out->push_back(',');
        Indent(out, indent, depth + 1);
        AppendEscaped(out, members_[i].first);
        out->push_back(':');
        if (indent > 0) out->push_back(' ');
        members_[i].second.DumpTo(out, indent, depth + 1);
      }
      Indent(out, indent, depth);
      out->push_back('}');
      return;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

}  // namespace tdr::obs
