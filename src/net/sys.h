/**
 * @file
 * Injectable syscall wrappers for the network layer.
 *
 * Every socket syscall the server's data path issues goes through
 * these shims so that tests can create adverse schedules on demand:
 * an accept(2) that hits EMFILE, a writev(2) that only takes one byte,
 * an epoll_wait(2) that spuriously times out. Armed with a policy
 * that never fires, the same sites count the calls: a steady-state
 * request costs one epollWait, one readFd and one writevFd, and
 * epollCtl runs only when a connection's epoll interest changes
 * (tests/net/test_io_backend.cc pins that budget). Each wrapper
 * consults a fault-injection site (common/fault.h) before touching
 * the kernel:
 *
 *   net.accept       fail with policy errno (default EMFILE)
 *   net.read         fail with errno, or short-read via byteCap
 *   net.write        fail with errno, or truncate the gather writev
 *                    to byteCap bytes (a short write)
 *   net.epoll_wait   fail with errno, or report zero events
 *   net.epoll_ctl    fail ADD/MOD/DEL with errno (default ENOMEM)
 *   net.sys.connect  fail with errno (default ECONNREFUSED)
 *
 * Sites that model a slow peer honour the policy's delayUs payload
 * (fault::maybeDelay) before interpreting errno/byteCap, so one armed
 * policy expresses "stall 50ms then refuse" — the shape the cluster
 * client's deadline and ejection logic is tested against.
 *
 * When no site is armed (production), each wrapper is the raw syscall
 * behind one relaxed atomic load.
 *
 * Every wrapper is annotated TM_UNSAFE: a syscall is irrevocable, so
 * reaching one from an atomic transaction is a static error (tmlint
 * rule TM3) — the paper's GCC build rejected exactly these sites until
 * they were moved out of transactions or into relaxed ones.
 */

#ifndef TMEMC_NET_SYS_H
#define TMEMC_NET_SYS_H

#include <algorithm>
#include <cerrno>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/compiler.h"
#include "common/fault.h"

namespace tmemc::net::sys
{

TM_UNSAFE inline int
acceptConn(int listen_fd, int flags)
{
    if (fault::enabled()) {
        const fault::Action a = fault::consult("net.accept");
        if (a.fire) {
            errno = a.errnoValue != 0 ? a.errnoValue : EMFILE;
            return -1;
        }
    }
    return ::accept4(listen_fd, nullptr, nullptr, flags);
}

TM_UNSAFE inline int
connectFd(int fd, const struct sockaddr *addr, socklen_t len)
{
    if (fault::enabled()) {
        const fault::Action a = fault::consult("net.sys.connect");
        if (a.fire) {
            fault::maybeDelay(a);
            errno = a.errnoValue != 0 ? a.errnoValue : ECONNREFUSED;
            return -1;
        }
    }
    return ::connect(fd, addr, len);
}

TM_UNSAFE inline ssize_t
readFd(int fd, void *buf, std::size_t count)
{
    if (fault::enabled()) {
        const fault::Action a = fault::consult("net.read");
        if (a.fire) {
            fault::maybeDelay(a);
            if (a.errnoValue != 0) {
                errno = a.errnoValue;
                return -1;
            }
            if (a.byteCap != 0 && a.byteCap < count)
                count = a.byteCap;
        }
    }
    return ::read(fd, buf, count);
}

/** Most iovecs one gather write submits (also the fault-trim bound). */
constexpr int kMaxWriteIov = 64;

TM_UNSAFE inline ssize_t
writevFd(int fd, const struct iovec *iov, int iovcnt)
{
    if (fault::enabled()) {
        const fault::Action a = fault::consult("net.write");
        if (a.fire) {
            fault::maybeDelay(a);
            if (a.errnoValue != 0) {
                errno = a.errnoValue;
                return -1;
            }
            if (a.byteCap != 0) {
                // Simulate a short gather write: trim the iov list to
                // byteCap total bytes, possibly splitting one entry.
                struct iovec trimmed[kMaxWriteIov];
                std::size_t budget = a.byteCap;
                int n = 0;
                for (; n < iovcnt && n < kMaxWriteIov && budget > 0;
                     ++n) {
                    trimmed[n] = iov[n];
                    if (trimmed[n].iov_len > budget)
                        trimmed[n].iov_len = budget;
                    budget -= trimmed[n].iov_len;
                }
                if (n == 0)
                    return 0;
                return ::writev(fd, trimmed, n);
            }
        }
    }
    return ::writev(fd, iov, iovcnt);
}

TM_UNSAFE inline int
epollWait(int epfd, epoll_event *events, int maxevents, int timeout_ms)
{
    if (fault::enabled()) {
        const fault::Action a = fault::consult("net.epoll_wait");
        if (a.fire) {
            if (a.errnoValue != 0) {
                errno = a.errnoValue;
                return -1;
            }
            return 0;  // Simulated timeout with no ready events.
        }
    }
    return ::epoll_wait(epfd, events, maxevents, timeout_ms);
}

TM_UNSAFE inline int
epollCtl(int epfd, int op, int fd, epoll_event *event)
{
    if (fault::enabled()) {
        const fault::Action a = fault::consult("net.epoll_ctl");
        if (a.fire) {
            errno = a.errnoValue != 0 ? a.errnoValue : ENOMEM;
            return -1;
        }
    }
    return ::epoll_ctl(epfd, op, fd, event);
}

} // namespace tmemc::net::sys

#endif // TMEMC_NET_SYS_H
