// Binary trace container (.tct): compact per-core event streams for long
// workloads (docs/checkpointing.md — many long traces instead of a few
// short synthetic kernels).
//
// The encoding eats our own dogfood: line addresses are stored as zigzag
// deltas against the previous address in the same core's stream — the same
// base+delta idea the paper's stride/DBRC address compressors exploit on the
// wire (compression/stride.hpp), applied to the trace file. Loads and stores
// in a striding loop cost 2 bytes each; compute bursts and barriers cost 1-2.
//
// File layout (all integers little-endian):
//   "TCT1"  u32 version  u32 n_cores  u32 flags  u64 code_lines
//   u64 first_block_offset[n_cores]      (0 = empty stream; back-patched)
//   u64 event_count[n_cores]             (back-patched at close)
//   blocks...
// Block: u64 next_block_offset (0 = last)  u32 payload_bytes  payload.
// Each core's blocks form a forward-linked chain, so the reader holds one
// block (<= 64 KiB) per core regardless of trace length, and cores never
// contend: every reader cursor owns its own file handle.
//
// Event encoding: opcode byte kind<<6 | n.
//   load (0) / store (1): n = byte length of the zigzag-encoded address
//     delta, which follows raw LE (n = 0 means delta 0).
//   compute (2) / barrier (3): value inline in n when < 63, else n = 63 and
//     a LEB128 varint follows.
// kDone is not encoded: a stream ends when its last block drains.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/workload.hpp"

namespace tcmp::workloads {

inline constexpr std::uint32_t kTraceFormatVersion = 1;
inline constexpr char kTraceMagic[4] = {'T', 'C', 'T', '1'};
/// Block payloads flush at this size; the reader's per-core memory bound.
inline constexpr std::size_t kTraceBlockBytes = 64 * 1024;

/// Streaming .tct writer. Single-threaded: one file cursor serves all cores
/// (tcmpsim gates --record to --threads 1).
class TraceRecorder {
 public:
  TraceRecorder(const std::string& path, unsigned n_cores, bool has_warmup,
                std::uint64_t code_lines);
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Append one event (kDone is ignored — end-of-stream is implicit).
  void record(unsigned core, const core::Op& op);
  /// Flush every open block and back-patch the header tables. Idempotent;
  /// the destructor calls it.
  void close();

  [[nodiscard]] std::uint64_t events_recorded() const { return total_events_; }

 private:
  struct CoreStream {
    std::vector<std::uint8_t> buf;  ///< open block payload
    std::uint64_t patch_at = 0;     ///< file offset of the link to back-patch
    std::uint64_t prev_line = 0;  ///< delta base; tcmplint: allow-raw-unit (zigzag wrap-around arithmetic)
    std::uint64_t events = 0;
  };

  void flush(unsigned core);

  std::fstream out_;
  std::string path_;
  std::vector<CoreStream> cores_;
  std::uint64_t total_events_ = 0;
  bool closed_ = false;
};

/// Streaming .tct reader. Each core's cursor owns an independent file handle
/// and decodes its own block chain, so next() needs no locking: under a
/// partition plan each cursor is touched only by its tile's thread.
class BinaryTraceWorkload final : public core::Workload {
 public:
  explicit BinaryTraceWorkload(const std::string& path);

  core::Op next(unsigned core) override;
  [[nodiscard]] std::string name() const override { return path_; }
  [[nodiscard]] bool has_warmup() const override { return has_warmup_; }
  [[nodiscard]] std::uint64_t code_lines() const override { return code_lines_; }

  [[nodiscard]] unsigned n_cores() const { return n_cores_; }
  /// Total events in the file (from the header tables).
  [[nodiscard]] std::uint64_t total_events() const { return total_events_; }

  /// Checkpointable: a cursor is (block offset, position, delta base).
  [[nodiscard]] bool can_snapshot() const override { return true; }
  void save(SnapshotWriter& w) const override;
  void load(SnapshotReader& r) override;

 private:
  struct Cursor {
    std::unique_ptr<std::ifstream> in;
    std::vector<std::uint8_t> payload;  ///< current block
    std::uint64_t block_offset = 0;     ///< 0 = no block loaded
    std::uint64_t next_block = 0;
    std::uint64_t pos = 0;              ///< decode position within payload
    std::uint64_t prev_line = 0;  ///< delta base; tcmplint: allow-raw-unit (zigzag wrap-around arithmetic)
    bool done = false;
  };

  void load_block(Cursor& c, std::uint64_t offset);
  core::Op decode(Cursor& c);

  // The file identity and header fields below are re-read from the trace on
  // open; a checkpoint stores only the per-core cursor positions.
  // tcmplint: snapshot-exempt (file identity; restore re-opens the trace)
  std::string path_;
  unsigned n_cores_ = 0;
  // tcmplint: snapshot-exempt (trace header field, re-read on open)
  bool has_warmup_ = false;
  // tcmplint: snapshot-exempt (trace header field, re-read on open)
  std::uint64_t code_lines_ = 0;
  // tcmplint: snapshot-exempt (trace header field, re-read on open)
  std::uint64_t total_events_ = 0;
  // tcmplint: snapshot-exempt (trace header table, re-read on open)
  std::vector<std::uint64_t> first_block_;
  std::vector<Cursor> cursors_;
};

/// Pass-through wrapper that captures another workload's stream to a .tct
/// file as the simulation consumes it (tcmpsim --record). Single-threaded,
/// like the recorder it feeds.
class RecordingWorkload final : public core::Workload {
 public:
  RecordingWorkload(std::shared_ptr<core::Workload> inner,
                    const std::string& path, unsigned n_cores);

  core::Op next(unsigned core) override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool has_warmup() const override { return inner_->has_warmup(); }
  [[nodiscard]] std::uint64_t code_lines() const override {
    return inner_->code_lines();
  }

  /// Finish the file (flush + back-patch). Idempotent.
  void finish() { recorder_.close(); }
  [[nodiscard]] std::uint64_t events_recorded() const {
    return recorder_.events_recorded();
  }

 private:
  std::shared_ptr<core::Workload> inner_;
  TraceRecorder recorder_;
};

}  // namespace tcmp::workloads
