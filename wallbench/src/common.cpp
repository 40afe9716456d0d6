#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <unistd.h>

namespace wallbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[upper] - values[lower]);
}

namespace {

std::string proc_dir(pid_t pid) {
  return pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
}

// Value of a "Key:   123 kB"-style line of a status file, or 0.
std::uint64_t status_field(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::stoull(line.substr(key.size() + 1));
    }
  }
  return 0;
}

std::vector<std::string> task_dirs(pid_t pid) {
  std::vector<std::string> out;
  const std::string root = proc_dir(pid) + "/task";
  if (DIR* dir = opendir(root.c_str())) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') out.push_back(root + "/" + entry->d_name);
    }
    closedir(dir);
  }
  return out;
}

}  // namespace

double peak_rss_mb(pid_t pid) {
  return static_cast<double>(status_field(proc_dir(pid) + "/status", "VmHWM")) / 1024.0;
}

double process_cpu_us(pid_t pid) {
  // /proc/<pid>/stat fields 14 and 15 (utime, stime) already sum every
  // thread of the process, including threads that have exited.
  std::ifstream in(proc_dir(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');  // comm may contain spaces
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int index = 3; fields >> field; ++index) {
    if (index == 14 || index == 15) ticks += std::stod(field);
    if (index == 15) break;
  }
  return ticks * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::uint64_t context_switches(pid_t pid) {
  std::uint64_t total = 0;
  for (const std::string& task : task_dirs(pid)) {
    total += status_field(task + "/status", "voluntary_ctxt_switches");
    total += status_field(task + "/status", "nonvoluntary_ctxt_switches");
  }
  return total;
}

}  // namespace wallbench
