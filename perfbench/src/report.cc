#include "report.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[400];
  const std::to_chars_result result = std::to_chars(
      buffer, buffer + sizeof(buffer), value, std::chars_format::fixed);
  return std::string(buffer, result.ptr);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_.push_back(Metric{name, value, unit});
  std::printf("  e2e    %-26s %s %s\n", name.c_str(),
              FormatNumber(value).c_str(), unit.c_str());
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_.push_back(Metric{name, value, unit});
  std::printf("  layer  %-26s %s %s\n", name.c_str(),
              FormatNumber(value).c_str(), unit.c_str());
}

void Report::Info(const std::string& line) {
  std::printf("  %s\n", line.c_str());
}

void Report::Check(bool ok, const std::string& what) {
  std::printf("  check  %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) failures_.push_back(what);
}

void Report::Count(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::PrintResult(bool traced) const {
  const std::vector<Metric>& metrics = traced ? layer_ : end_to_end_;
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            FormatNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::fflush(stdout);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
