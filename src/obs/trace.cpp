#include "obs/trace.hpp"

#include <ostream>

namespace tcmp::obs {

void TraceWriter::set_track_name(std::uint32_t pid, std::uint32_t tid,
                                 std::string name) {
  names_.push_back({pid, tid, /*is_process=*/false, std::move(name)});
}

void TraceWriter::set_process_name(std::uint32_t pid, std::string name) {
  names_.push_back({pid, 0, /*is_process=*/true, std::move(name)});
}

bool TraceWriter::add(TraceEvent e, bool force) {
  if (!force && full()) {
    ++dropped_;
    return false;
  }
  events_.push_back(std::move(e));
  return true;
}

void TraceWriter::write(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const auto& n : names_) {
    sep();
    out << "{\"name\":\"" << (n.is_process ? "process_name" : "thread_name")
        << "\",\"ph\":\"M\",\"pid\":" << n.pid;
    if (!n.is_process) out << ",\"tid\":" << n.tid;
    out << ",\"args\":{\"name\":\"" << n.name << "\"}}";
  }
  for (const auto& e : events_) {
    sep();
    out << "{\"name\":\"" << e.name << "\",\"cat\":\"" << e.cat
        << "\",\"ph\":\"" << e.ph << "\",\"pid\":" << e.pid
        << ",\"tid\":" << e.tid << ",\"ts\":" << e.ts.value();
    if (e.ph == 'b' || e.ph == 'e') out << ",\"id\":" << e.id;
    if (e.ph == 'i') out << ",\"s\":\"t\"";
    if (e.cname != nullptr) out << ",\"cname\":\"" << e.cname << "\"";
    if (!e.args.empty()) out << ",\"args\":{" << e.args << "}";
    out << "}";
  }
  sep();
  out << "{\"name\":\"trace_done\",\"cat\":\"meta\",\"ph\":\"i\",\"pid\":1,"
         "\"tid\":0,\"ts\":"
      << (events_.empty() ? 0 : events_.back().ts.value())
      << ",\"s\":\"g\",\"args\":{\"events\":" << events_.size()
      << ",\"dropped\":" << dropped_ << "}}";
  out << "\n]}\n";
}

}  // namespace tcmp::obs
