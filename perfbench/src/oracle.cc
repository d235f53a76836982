#include "oracle.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "iterator/volcano_engine.h"

namespace perfbench {

using hique::Result;
using hique::Status;
using hique::ref::Row;

std::vector<Row> TableRows(hique::Table* table) {
  std::vector<Row> rows;
  if (table == nullptr) return rows;
  const hique::Schema& schema = table->schema();
  Status st = table->ForEachTuple([&](const uint8_t* tuple) {
    Row row;
    row.reserve(schema.NumColumns());
    for (size_t c = 0; c < schema.NumColumns(); ++c) {
      row.push_back(schema.GetValue(tuple, c));
    }
    rows.push_back(std::move(row));
  });
  (void)st;  // in-memory result tables cannot fail to scan
  return rows;
}

Status CheckAgainstIterator(hique::Catalog* catalog, const std::string& sql,
                            const std::vector<Row>& actual) {
  hique::iter::VolcanoEngine volcano(catalog, hique::iter::Mode::kOptimized);
  auto expected = volcano.Query(sql);
  if (!expected.ok()) return expected.status();
  const bool ordered = sql.find("order by") != std::string::npos;
  Status st = hique::ref::CompareRowSets(TableRows(expected.value().table.get()),
                                         actual, ordered);
  if (!st.ok()) {
    return Status::Internal("result differs from the iterator engine for [" +
                            sql + "]: " + st.ToString());
  }
  return Status::OK();
}

Result<int64_t> IteratorCount(hique::Catalog* catalog, const std::string& sql) {
  hique::iter::VolcanoEngine volcano(catalog, hique::iter::Mode::kOptimized);
  auto r = volcano.Query(sql);
  if (!r.ok()) return r.status();
  std::vector<Row> rows = TableRows(r.value().table.get());
  if (rows.size() != 1 || rows[0].size() != 1) {
    return Status::Internal("count query returned no single value: " + sql);
  }
  return rows[0][0].AsInt64();
}

Status RunIsolated(const std::function<Status()>& check) {
  int fds[2];
  if (::pipe(fds) != 0) return Status::Internal("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    Status st = check();
    const std::string msg = st.ok() ? "" : st.ToString();
    size_t off = 0;
    while (off < msg.size()) {
      ssize_t w = ::write(fds[1], msg.data() + off, msg.size() - off);
      if (w <= 0) break;
      off += static_cast<size_t>(w);
    }
    ::close(fds[1]);
    // _exit: the child owns none of the parent's threads, so running
    // destructors (which join them) would hang.
    ::_exit(st.ok() ? 0 : 1);
  }
  ::close(fds[1]);
  std::string msg;
  char buf[4096];
  for (;;) {
    ssize_t r = ::read(fds[0], buf, sizeof(buf));
    if (r <= 0) break;
    msg.append(buf, static_cast<size_t>(r));
  }
  ::close(fds[0]);
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0) {
    if (errno != EINTR) return Status::Internal("waitpid failed");
  }
  if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) return Status::OK();
  if (msg.empty()) msg = "oracle process ended abnormally";
  return Status::Internal(msg);
}

uint64_t Fingerprint(const std::vector<Row>& rows) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over the rendered rows
  for (const Row& row : rows) {
    for (const hique::Value& v : row) {
      for (char c : v.ToString()) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
      h ^= 0x1f;
      h *= 1099511628211ull;
    }
    h ^= 0x1e;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
