#include "util.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

std::string Json::SpansJson(const std::vector<Span>& spans) {
  std::string out = "[";
  char buf[96];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ',';
    Json j;
    j.Str("name", s.name);
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(s.start_ns));
    j.Raw("start_ns", buf);
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(s.end_ns));
    j.Raw("end_ns", buf);
    j.Num("parent", static_cast<double>(s.parent));
    j.Num("request", static_cast<double>(s.request));
    out += j.Done();
  }
  out += "]";
  return out;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << content;
  return static_cast<bool>(f);
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

namespace {
std::string ProcPath(int pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}
}  // namespace

double PeakRssMb(int pid) {
  std::string status;
  if (!ReadFile(ProcPath(pid, "status"), &status)) return 0;
  const size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return 0;
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;  // kB
}

uint64_t MinorFaults(int pid) {
  std::string stat;
  if (!ReadFile(ProcPath(pid, "stat"), &stat)) return 0;
  // Field 10 (minflt) counted after the parenthesised command name.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  for (int i = 3; i <= 10 && (in >> field); ++i) {
  }
  return std::strtoull(field.c_str(), nullptr, 10);
}

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i + 1 < argc; i += 2) {
    const char* name = argv[i];
    if (std::strncmp(name, "--", 2) == 0) name += 2;
    values_[name] = argv[i + 1];
  }
}

std::string Flags::Get(const std::string& name, const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

double Flags::Need(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    std::fprintf(stderr, "error: --%s is required\n", name.c_str());
    std::exit(2);
  }
  return std::strtod(it->second.c_str(), nullptr);
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace perfbench
