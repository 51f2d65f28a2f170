/**
 * @file
 * Connection state machine implementation.
 */

#include "net/conn.h"

#include <cerrno>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "mc/binary_protocol.h"
#include "net/sys.h"
#include "obs/hist.h"
#include "obs/metrics.h"

namespace tmemc::net
{

Conn::Conn(int fd, std::uint64_t id, const ConnLimits &limits)
    : fd_(fd), id_(id), limits_(limits),
      lastActivity_(std::chrono::steady_clock::now())
{
}

Conn::~Conn()
{
    // A connection dying with replies queued still finalizes its
    // traced requests: the flush span ends where the socket did.
    finishTailPending(true);
    // Segment destructors release any still-queued pins before the
    // socket goes; order does not matter, but the release must happen
    // on whatever thread destroys the Conn (loop thread normally,
    // EventLoop::stop()'s caller during teardown) — releasePinned
    // runs its own transaction and any registered thread may.
    outq_.clear();
    if (fd_ >= 0)
        ::close(fd_);
}

bool
Conn::onReadable(std::uint32_t worker, const ExecFn &exec)
{
    char chunk[16 * 1024];
    lastActivity_ = std::chrono::steady_clock::now();
    if (draining_)
        return discardInput();

    bool saw_eof = false;
    for (;;) {
        const ssize_t n = sys::readFd(fd_, chunk, sizeof(chunk));
        if (n > 0) {
            rbuf_.append(chunk, static_cast<std::size_t>(n));
            if (rbuf_.size() > limits_.rbufCap) {
                // Unframeable flood; drop the client.
                closeReason_ = CloseReason::Peer;
                return false;
            }
            // A short read took everything the socket held. Bytes or
            // EOF arriving later re-report the fd on the next
            // level-triggered wait, so a read that would only say
            // EAGAIN is not worth its syscall.
            if (static_cast<std::size_t>(n) < sizeof(chunk))
                break;
            continue;
        }
        if (n == 0) {
            saw_eof = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        closeReason_ = CloseReason::Peer;
        return false;  // ECONNRESET and friends.
    }

    if (!pump(worker, exec))
        return false;
    if (saw_eof) {
        // A client that half-closed after pipelining still gets its
        // replies if the kernel buffer takes them; anything the
        // nonblocking flush could not place is forfeit, as in
        // memcached's conn_closing.
        closeReason_ = CloseReason::Peer;
        return false;
    }
    if (closing_)
        return beginLingeringClose();
    return true;
}

bool
Conn::onWritable(std::uint32_t worker, const ExecFn &exec)
{
    lastActivity_ = std::chrono::steady_clock::now();
    if (!flush())
        return false;
    finishTailPending();
    if (draining_)
        return true;
    if (!pump(worker, exec))
        return false;
    if (closing_ && !wantsWrite())
        return beginLingeringClose();
    return true;
}

bool
Conn::pump(std::uint32_t worker, const ExecFn &exec)
{
    // Alternate execute-and-flush until a fixed point: drainFrames
    // pauses at the soft cap, but when flush() then empties the
    // backlog into the socket there will be no EPOLLOUT (nothing
    // pending) and no EPOLLIN (the bytes are already in rbuf_), so
    // any executable frames still buffered must be driven here, now.
    // The progress test makes the loop terminate: a pass that
    // consumed nothing repeats only if it began over the soft cap
    // (drainFrames could run no frame) and its flush lifted the cap;
    // one that consumed nothing under the cap (incomplete frame), or
    // is still over it after a partial flush, ends the loop.
    for (;;) {
        const std::size_t before = rbuf_.size();
        const bool capped = !wantsRead();
        if (!closing_ && !drainFrames(worker, exec))
            closing_ = true;
        if (!flush())
            return false;
        finishTailPending();
        if (pendingWrite() > limits_.wbufHardCap) {
            // The backlog outgrew what any client that stopped
            // reading deserves; cut it loose.
            closeReason_ = CloseReason::Backpressure;
            return false;
        }
        if (closing_ || rbuf_.empty() || !wantsRead() ||
            (rbuf_.size() == before && !capped))
            return true;
    }
}

bool
Conn::flushOnly()
{
    lastActivity_ = std::chrono::steady_clock::now();
    const bool ok = flush();
    finishTailPending();
    return ok;
}

void
Conn::finishTailPending(bool force)
{
    if (tailPending_.empty())
        return;
    if (!force && pending_ != 0)
        return;  // Replies still queued: the flush wait continues.
    const std::uint64_t now = obs::nowNanos();
    for (obs::tail::PendingTrace &p : tailPending_)
        obs::tail::finishRequest(std::move(p), now);
    tailPending_.clear();
}

bool
Conn::beginLingeringClose()
{
    if (wantsWrite())
        return true;  // Keep EPOLLOUT armed until the reply is out.
    if (!draining_) {
        // Half-close so the peer reads the reply then a clean FIN;
        // closing with unread client bytes would RST and can destroy
        // the reply in the peer's receive buffer. Input is discarded
        // until the peer's own FIN arrives.
        ::shutdown(fd_, SHUT_WR);
        draining_ = true;
    }
    return true;
}

bool
Conn::discardInput()
{
    char chunk[16 * 1024];
    for (;;) {
        const ssize_t n = sys::readFd(fd_, chunk, sizeof(chunk));
        if (n > 0)
            continue;
        if (n == 0) {
            closeReason_ = CloseReason::Peer;
            return false;  // Peer finished; now the close is clean.
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true;
        if (errno == EINTR)
            continue;
        closeReason_ = CloseReason::Peer;
        return false;
    }
}

void
Conn::queueOwned(const char *data, std::size_t n)
{
    if (n == 0)
        return;
    // Coalesce into the trailing owned segment (appending is safe
    // even when the segment is partially written — off indexes into
    // the string, which only grows).
    if (outq_.empty() || outq_.back().pinned())
        outq_.emplace_back();
    outq_.back().owned.append(data, n);
    pending_ += n;
}

void
Conn::enqueue(mc::Reply &&reply)
{
    for (mc::Reply::Seg &seg : reply.takeSegments()) {
        if (!seg.pinned()) {
            queueOwned(seg.owned.data(), seg.owned.size());
            continue;
        }
        pending_ += seg.size();
        outq_.push_back(std::move(seg));
    }
}

bool
Conn::drainFrames(std::uint32_t worker, const ExecFn &exec)
{
    std::size_t off = 0;
    bool ok = true;
    // Consecutive binary quiet-get frames (GetQ/GetKQ) are collected
    // and handed to exec() as one concatenated request: binaryExecute
    // turns the run into a single getMulti, so a sharded cache visits
    // each touched shard once instead of once per key.
    std::string quietRun;
    std::uint64_t quietFrames = 0;
    std::uint64_t quietT0 = 0;
    // Per-command latency: framed request handed to exec() until its
    // reply segments are queued. A batched quiet-get run counts as one
    // command — that is the unit of work the executor sees. The same
    // unit is one tail-tracer request: the trace opens with a parse
    // span back-dated to @p parse_t0 (the stamp taken before framing)
    // and stays pending until the reply's last byte leaves the
    // out-queue (finishTailPending closes the flush span).
    auto timedExec = [&](bool binary, const std::string &frame,
                         std::uint64_t parse_t0) {
        const std::uint64_t t0 = obs::nowNanos();
        const std::uint64_t rid = obs::tail::beginRequest(
            worker, binary, parse_t0 != 0 ? parse_t0 : t0);
        mc::Reply reply;
        exec(worker, binary, frame, reply);
        enqueue(std::move(reply));
        obs::hist(obs::HistKind::Command).record(obs::nowNanos() - t0);
        if (rid != 0) {
            if (obs::tail::PendingTrace p = obs::tail::endRequest())
                tailPending_.push_back(std::move(p));
        }
    };
    auto flushQuietRun = [&]() {
        if (quietFrames == 0)
            return;
        timedExec(true, quietRun, quietT0);
        served_ += quietFrames;
        quietRun.clear();
        quietFrames = 0;
        quietT0 = 0;
    };
    while (off < rbuf_.size()) {
        // Soft-cap check inside the burst too: a pipelined batch
        // stops executing once replies back up, leaving the rest of
        // the batch buffered until the client drains us.
        if (pendingWrite() >= limits_.wbufSoftCap)
            break;
        // Stamped before framing so the parse span covers the carve;
        // disarmed, this is one relaxed load and no clock read.
        const std::uint64_t parse_t0 =
            obs::tail::tailArmed() ? obs::nowNanos() : 0;
        const bool binary =
            static_cast<std::uint8_t>(rbuf_[off]) ==
            static_cast<std::uint8_t>(mc::BinMagic::Request);
        const mc::FrameResult fr =
            binary ? mc::binaryTryFrame(
                         reinterpret_cast<const std::uint8_t *>(
                             rbuf_.data() + off),
                         rbuf_.size() - off)
                   : mc::protocolTryFrame(rbuf_.data() + off,
                                          rbuf_.size() - off);
        if (fr.status == mc::FrameStatus::NeedMore)
            break;
        if (fr.status == mc::FrameStatus::Error) {
            // Text clients get the CLIENT_ERROR line; a corrupt
            // binary stream cannot be re-synchronized, so it just
            // closes.
            if (!binary && fr.error != nullptr)
                queueOwned(fr.error, std::char_traits<char>::length(
                                         fr.error));
            ok = false;
            break;
        }
        // One reused buffer per connection: a frame past the SSO
        // limit costs no malloc/free once the buffer has grown.
        frame_.assign(rbuf_, off, fr.frameLen);
        if (binary && mc::binIsQuietGet(frame_.data(), frame_.size())) {
            if (quietFrames == 0)
                quietT0 = parse_t0;
            quietRun += frame_;
            ++quietFrames;
            off += fr.frameLen;
            continue;
        }
        // Any non-quiet frame terminates the run; its reply must
        // follow the run's hit replies, so flush the batch first.
        flushQuietRun();
        if (!binary && (frame_ == "quit\r\n" || frame_ == "quit\n")) {
            // memcached's quit: close without a reply.
            off += fr.frameLen;
            ok = false;
            break;
        }
        timedExec(binary, frame_, parse_t0);
        ++served_;
        off += fr.frameLen;
    }
    // Runs also end at the buffer edge (NeedMore / soft cap / error):
    // quiet gets never wait for a terminator, they are batched only
    // opportunistically within one drain pass.
    flushQuietRun();
    if (off == rbuf_.size())
        rbuf_.clear();
    else if (off > 0)
        rbuf_.erase(0, off);
    return ok;
}

void
Conn::consumeOut(std::size_t n)
{
    while (n > 0 && !outq_.empty()) {
        mc::Reply::Seg &front = outq_.front();
        const std::size_t rem = front.size() - front.off;
        const std::size_t take = rem < n ? rem : n;
        front.off += take;
        pending_ -= take;
        n -= take;
        if (front.off == front.size())
            outq_.pop_front();  // Seg destructor releases its pin.
    }
}

bool
Conn::flush()
{
    while (!outq_.empty()) {
        // Retire already-empty segments (zero-length values) so the
        // syscall below always has bytes to move.
        while (!outq_.empty() &&
               outq_.front().off == outq_.front().size())
            outq_.pop_front();
        if (outq_.empty())
            break;

        // One gather write over the whole queue: reply headers from
        // owned segments, pinned values straight from the slab.
        struct iovec iov[sys::kMaxWriteIov];
        int cnt = 0;
        for (const mc::Reply::Seg &seg : outq_) {
            if (cnt == sys::kMaxWriteIov)
                break;
            iov[cnt].iov_base = const_cast<char *>(seg.data()) + seg.off;
            iov[cnt].iov_len = seg.size() - seg.off;
            ++cnt;
        }
        const ssize_t n = sys::writevFd(fd_, iov, cnt);
        if (n > 0) {
            consumeOut(static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true;  // Event loop will re-arm EPOLLOUT.
        if (n < 0 && errno == EINTR)
            continue;
        if (n == 0)
            return true;  // Nothing accepted; wait for EPOLLOUT.
        closeReason_ = CloseReason::Peer;
        return false;  // EPIPE etc.: peer is gone.
    }
    return true;
}

} // namespace tmemc::net
