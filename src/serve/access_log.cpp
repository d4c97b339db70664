#include "serve/access_log.hpp"

#include "util/env.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"

namespace cgps::serve {

bool access_log_enabled() { return !env_serve_access_log_path().empty(); }

void log_access(const AccessRecord& record) {
  const double slow_ms = env_serve_slow_ms();
  if (slow_ms > 0.0 && static_cast<double>(record.total_us) > slow_ms * 1000.0) {
    log_warn("slow request: trace_id=", record.trace_id, " task=",
             task_kind_name(record.task), " status=", status_name(record.status),
             " design=", record.design, " total_us=", record.total_us,
             " queue_us=", record.queue_us, " batch=", record.batch_id, "/",
             record.batch_size);
  }
  if (!access_log_enabled()) return;
  static EnvJsonlSink& sink = EnvJsonlSink::process_lifetime(
      {"CIRCUITGPS_SERVE_ACCESS_LOG", env_serve_access_log_path, "access logging",
       env_run_log_max_bytes});
  JsonWriter w;
  w.begin_object();
  w.field("schema", "cgps-serve-access-v1");
  w.field("trace_id", record.trace_id);
  w.field("id", record.wire_id);
  w.field("status", status_name(record.status));
  w.field("task", task_kind_name(record.task));
  w.field("design", static_cast<std::int64_t>(record.design));
  w.field("queue_us", record.queue_us);
  w.field("extract_us", record.extract_us);
  w.field("forward_us", record.forward_us);
  w.field("total_us", record.total_us);
  w.field("batch", record.batch_id);
  w.field("batch_size", record.batch_size);
  w.end_object();
  sink.write_line(w.str());
}

}  // namespace cgps::serve
