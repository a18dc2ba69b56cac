#include "src/common/artifact.h"

namespace treebench {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string CsvQuote(std::string_view s) {
  std::string out = "\"";
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string FormatNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string FormatFixed(double v, int digits) {
  std::string out(std::snprintf(nullptr, 0, "%.*f", digits, v), '\0');
  std::snprintf(out.data(), out.size() + 1, "%.*f", digits, v);
  return out;
}

std::string FormatUint(uint64_t v) { return std::to_string(v); }

bool WriteAll(std::FILE* stream, std::string_view content) {
  return std::fwrite(content.data(), 1, content.size(), stream) ==
         content.size();
}

Status WriteFile(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  bool ok = f != nullptr && WriteAll(f, content);
  // A full disk often shows only when the buffered bytes reach it at close.
  if (f != nullptr && std::fclose(f) != 0) ok = false;
  if (!ok) return Status::Internal("cannot write " + path);
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::Internal("cannot read " + path);
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return Status::Internal("cannot read " + path);
  return out;
}

}  // namespace treebench
