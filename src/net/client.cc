#include "net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstddef>

namespace hot {
namespace net {

namespace {
bool Fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}
bool FailErrno(std::string* error, const char* what) {
  return Fail(error, std::string(what) + ": " + strerror(errno));
}
}  // namespace

bool KvClient::Connect(const std::string& host, uint16_t port,
                       std::string* error) {
  if (fd_ >= 0) return Fail(error, "already connected");
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return FailErrno(error, "socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Fail(error, "bad host: " + host);
  }
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    FailErrno(error, "connect");
    Close();
    return false;
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

void KvClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  out_.clear();
  in_.clear();
  in_off_ = 0;
  pending_.clear();
  buffered_.clear();
}

uint64_t KvClient::SendGet(KeyRef key) {
  uint64_t id = next_id_++;
  EncodeGet(&out_, id, key);
  pending_[id] = kOpGet;
  return id;
}
uint64_t KvClient::SendPut(KeyRef key, uint64_t value) {
  uint64_t id = next_id_++;
  EncodePut(&out_, id, key, value);
  pending_[id] = kOpPut;
  return id;
}
uint64_t KvClient::SendDelete(KeyRef key) {
  uint64_t id = next_id_++;
  EncodeDelete(&out_, id, key);
  pending_[id] = kOpDelete;
  return id;
}
uint64_t KvClient::SendScan(KeyRef key, uint32_t limit) {
  uint64_t id = next_id_++;
  EncodeScan(&out_, id, key, limit);
  pending_[id] = kOpScan;
  return id;
}

bool KvClient::Flush(std::string* error) {
  size_t off = 0;
  while (off < out_.size()) {
    ssize_t n = ::write(fd_, out_.data() + off, out_.size() - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      out_.erase(out_.begin(), out_.begin() + static_cast<ptrdiff_t>(off));
      return FailErrno(error, "write");
    }
  }
  out_.clear();
  return true;
}

uint8_t KvClient::PendingOp(uint64_t id) const {
  auto it = pending_.find(id);
  return it == pending_.end() ? 0 : it->second;
}

bool KvClient::ReadReply(Reply* reply, std::string* error) {
  while (true) {
    // Deliver a buffered reply first (arrival order is preserved by the
    // map only per-id; callers using buffered_ go through AwaitReplyFor).
    const uint8_t* body;
    size_t body_len, consumed;
    FrameVerdict v = NextFrame(in_.data() + in_off_, in_.size() - in_off_,
                               kDefaultMaxFrameBody + (16u << 20), &body,
                               &body_len, &consumed);
    if (v == FrameVerdict::kBadLength) {
      return Fail(error, "malformed reply frame length");
    }
    if (v == FrameVerdict::kHaveFrame) {
      // Peek the id to find the opcode this reply answers.
      uint64_t id = GetU64(body);
      uint8_t op = PendingOp(id);
      if (!ParseReply(body, body_len, op, reply, error)) return false;
      in_off_ += consumed;
      if (in_off_ == in_.size()) {
        in_.clear();
        in_off_ = 0;
      }
      pending_.erase(id);
      return true;
    }
    // Need more bytes.
    char buf[64 * 1024];
    ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      in_.insert(in_.end(), buf, buf + n);
    } else if (n == 0) {
      return Fail(error, "connection closed by server");
    } else if (errno != EINTR) {
      return FailErrno(error, "read");
    }
  }
}

bool KvClient::AwaitReplyFor(uint64_t id, Reply* reply, std::string* error) {
  auto it = buffered_.find(id);
  if (it != buffered_.end()) {
    *reply = std::move(it->second);
    buffered_.erase(it);
    return true;
  }
  Reply r;
  while (true) {
    if (!ReadReply(&r, error)) return false;
    if (r.id == id) {
      *reply = std::move(r);
      return true;
    }
    buffered_[r.id] = std::move(r);
  }
}

bool KvClient::Get(KeyRef key, Reply* reply, std::string* error) {
  uint64_t id = SendGet(key);
  return Flush(error) && AwaitReplyFor(id, reply, error);
}
bool KvClient::Put(KeyRef key, uint64_t value, Reply* reply,
                   std::string* error) {
  uint64_t id = SendPut(key, value);
  return Flush(error) && AwaitReplyFor(id, reply, error);
}
bool KvClient::Delete(KeyRef key, Reply* reply, std::string* error) {
  uint64_t id = SendDelete(key);
  return Flush(error) && AwaitReplyFor(id, reply, error);
}
bool KvClient::Scan(KeyRef key, uint32_t limit, Reply* reply,
                    std::string* error) {
  uint64_t id = SendScan(key, limit);
  return Flush(error) && AwaitReplyFor(id, reply, error);
}

}  // namespace net
}  // namespace hot
