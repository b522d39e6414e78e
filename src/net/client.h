// Blocking KV client over the net/protocol.h wire format.
//
// Two usage styles share one connection object:
//
//   * Synchronous convenience calls (Get/Put/Delete/Scan): send one
//     request, block until ITS reply arrives.  Replies for other
//     outstanding ids received meanwhile are buffered and delivered later.
//   * Explicit pipelining: Send*() encodes into the output buffer and
//     returns the request id; Flush() writes everything; ReadReply() blocks
//     for the next reply IN ARRIVAL ORDER — which, because the server
//     defers GETs into end-of-iteration batch drains, is NOT request order.
//     Callers match replies to requests by id; PendingOp() exposes the
//     opcode the client remembered for an id (replies do not repeat it).
//
// The client is deliberately simple and single-threaded (no locks): one
// instance per thread.  tools/kv_client drives many instances; the tests
// use the pipelined face to provoke and verify out-of-order completion.

#ifndef HOT_NET_CLIENT_H_
#define HOT_NET_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/key.h"
#include "net/protocol.h"

namespace hot {
namespace net {

class KvClient {
 public:
  KvClient() = default;
  ~KvClient() { Close(); }
  KvClient(const KvClient&) = delete;
  KvClient& operator=(const KvClient&) = delete;

  bool Connect(const std::string& host, uint16_t port, std::string* error);
  void Close();
  int fd() const { return fd_; }

  // --- pipelined face --------------------------------------------------------

  uint64_t SendGet(KeyRef key);
  uint64_t SendPut(KeyRef key, uint64_t value);
  uint64_t SendDelete(KeyRef key);
  uint64_t SendScan(KeyRef key, uint32_t limit);

  // Writes the whole output buffer (blocking).  False on socket error.
  bool Flush(std::string* error);

  // Blocks for the next reply frame in arrival order.  False on socket
  // error, EOF, or a malformed reply (*error says which).
  bool ReadReply(Reply* reply, std::string* error);

  // Opcode remembered for an outstanding id (0 if unknown — e.g. the id-0
  // reply accompanying a fatal kBadFrame).
  uint8_t PendingOp(uint64_t id) const;
  size_t outstanding() const { return pending_.size(); }

  // --- synchronous convenience ----------------------------------------------
  // Each returns false only on transport/parse failure; protocol-level
  // outcomes (kNotFound, error statuses) come back in *reply.

  bool Get(KeyRef key, Reply* reply, std::string* error);
  bool Put(KeyRef key, uint64_t value, Reply* reply, std::string* error);
  bool Delete(KeyRef key, Reply* reply, std::string* error);
  bool Scan(KeyRef key, uint32_t limit, Reply* reply, std::string* error);

 private:
  bool AwaitReplyFor(uint64_t id, Reply* reply, std::string* error);

  int fd_ = -1;
  uint64_t next_id_ = 1;
  std::vector<uint8_t> out_;
  std::vector<uint8_t> in_;
  size_t in_off_ = 0;
  std::map<uint64_t, uint8_t> pending_;       // id -> opcode
  std::map<uint64_t, Reply> buffered_;        // replies read while waiting
};

}  // namespace net
}  // namespace hot

#endif  // HOT_NET_CLIENT_H_
