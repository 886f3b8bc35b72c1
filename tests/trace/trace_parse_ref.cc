#include "trace_parse_ref.h"

#include <limits>
#include <sstream>

namespace afraid {

bool ParseTraceStreamRef(const std::string& text, Trace* out) {
  out->name.clear();
  out->tenants = 0;
  out->records.clear();
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      std::istringstream hdr(line.substr(1));
      std::string key;
      hdr >> key;
      if (key == "name") {
        hdr >> std::ws;
        std::getline(hdr, out->name);
      } else if (key == "tenants") {
        int64_t tenants = 0;
        if (hdr >> tenants && tenants > 0 &&
            tenants <= std::numeric_limits<int32_t>::max()) {
          out->tenants = static_cast<int32_t>(tenants);
        }
      }
      continue;
    }
    TraceRecord r;
    char op = 0;
    std::istringstream row(line);
    if (!(row >> r.time >> op >> r.offset >> r.size)) {
      return false;
    }
    if (op != 'R' && op != 'W') {
      return false;
    }
    if (r.time < 0 || r.offset < 0 || r.size <= 0) {
      return false;
    }
    r.is_write = (op == 'W');
    out->records.push_back(r);
  }
  return true;
}

}  // namespace afraid
