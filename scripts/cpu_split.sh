#!/usr/bin/env bash
# Where the served path spends its CPU, thread by thread.
#
#   scripts/cpu_split.sh <serve|fleet> [accesses] [sessions]
#
# Builds the release examples, then runs <sessions> (default 1) loopback
# sessions of <accesses> (default 10 000 000) swapt accesses each:
#
#   serve  one `catd` (drcat:64:11:32768, epoch 5 000 000, 1 shard)
#   fleet  `catd_router` (epoch 5 000 000) over two clockless
#          `catd --slice K/2` backends
#
# with `catd_loadgen` streaming over 2 producer connections and verifying
# the snapshot bit for bit. While the servers run, it samples
# /proc/<pid>/task/*/{stat,status} of the servers it started (and of no
# other process) every 5 ms. It prints, per server thread, user and
# system CPU in ms per million accesses and the voluntary and
# involuntary context switches, summed over the sessions; then a
# `total` line. A thread that exits between two samples loses its last
# few milliseconds: each process's `(unsampled)` row is its own total
# (read from /proc/<pid>/stat before it is reaped) minus its sampled
# threads. The main thread of `catd` and of `catd_router` runs the drain;
# `catd-reader-N` threads read the connections.
#
# CPU times come in clock ticks (usually 10 ms): use enough accesses and
# sessions that each row holds many ticks.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -lt 1 ] || [ "$#" -gt 3 ]; then
    echo "usage: $0 <serve|fleet> [accesses] [sessions]" >&2
    exit 2
fi
WORKLOAD="$1" ACCESSES="${2:-10000000}" SESSIONS="${3:-1}"
case "$WORKLOAD" in
    serve | fleet) ;;
    *) echo "cpu_split: workload is serve or fleet, not '$WORKLOAD'" >&2; exit 2 ;;
esac
case "$ACCESSES$SESSIONS" in
    *[!0-9]*) echo "cpu_split: <accesses> and <sessions> are integers" >&2; exit 2 ;;
esac
[ "$ACCESSES" -ge 1 ] && [ "$SESSIONS" -ge 1 ] || {
    echo "cpu_split: at least one access and one session" >&2; exit 2; }

export CARGO_NET_OFFLINE=true
cargo build --release --quiet --example catd --example catd_router --example catd_loadgen
BIN="${CARGO_TARGET_DIR:-target}/release/examples"

python3 - "$BIN" "$WORKLOAD" "$ACCESSES" "$SESSIONS" <<'EOF'
import os
import subprocess
import sys
import tempfile
import time

bins, workload, accesses, sessions = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
SPEC, EPOCH, PRODUCERS, CHUNK = "drcat:64:11:32768", "5000000", 2, 8192
TICK_MS = 1000.0 / os.sysconf("SC_CLK_TCK")


def fail(message):
    print(f"cpu_split: {message}", file=sys.stderr)
    sys.exit(1)


def stat_times(path):
    """(comm, utime, stime) in ticks from a /proc .../stat file."""
    text = open(path).read()
    comm = text[text.index("(") + 1 : text.rindex(")")]
    fields = text[text.rindex(")") + 2 :].split()
    return comm, int(fields[11]), int(fields[12])


def switches(path):
    counts = {}
    for line in open(path):
        key, _, value = line.partition(":")
        if key in ("voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"):
            counts[key] = int(value)
    return counts.get("voluntary_ctxt_switches", 0), counts.get("nonvoluntary_ctxt_switches", 0)


class Server:
    def __init__(self, role, binary, args, tag):
        self.role = role
        self.log = tempfile.TemporaryFile(mode="w+")
        self.proc = subprocess.Popen([os.path.join(bins, binary)] + args, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        self.tag = tag
        self.threads = {}  # tid -> (comm, utime, stime, voluntary, involuntary)
        self.total = None  # (utime, stime) of the whole process at exit

    def address(self):
        prefix = f"{self.tag}: listening on "
        for _ in range(200):
            self.log.seek(0)
            for line in self.log:
                if line.startswith(prefix):
                    return line[len(prefix):].strip()
            if self.proc.poll() is not None:
                break
            time.sleep(0.05)
        self.log.seek(0)
        fail(f"{self.role} never reported its address:\n{self.log.read()}")

    def exited(self):
        """True once the process has exited; it is left unreaped."""
        info = os.waitid(os.P_PID, self.proc.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        return info is not None

    def sample(self):
        task_dir = f"/proc/{self.proc.pid}/task"
        try:
            tids = os.listdir(task_dir)
        except FileNotFoundError:
            return
        for tid in tids:
            try:
                comm, utime, stime = stat_times(f"{task_dir}/{tid}/stat")
                vol, invol = switches(f"{task_dir}/{tid}/status")
            except (FileNotFoundError, ProcessLookupError, ValueError, IndexError):
                continue  # the thread exited between listdir and read
            self.threads[tid] = (comm, utime, stime, vol, invol)

    def reap(self):
        _, utime, stime = stat_times(f"/proc/{self.proc.pid}/stat")
        self.total = (utime, stime)
        code = self.proc.wait()
        if code != 0:
            self.log.seek(0)
            fail(f"{self.role} exited with {code}:\n{self.log.read()}")


def session():
    if workload == "serve":
        servers = [Server("catd", "catd",
                          ["127.0.0.1:0", SPEC, str(PRODUCERS), EPOCH, "1"], "catd")]
        addr = servers[0].address()
    else:
        servers = [Server(f"backend{k}", "catd",
                          ["127.0.0.1:0", SPEC, "1", "0", "1", "--slice", f"{k}/2"], "catd")
                   for k in range(2)]
        backends = [s.address() for s in servers]
        router = Server("router", "catd_router",
                        ["127.0.0.1:0", str(PRODUCERS), EPOCH] + backends, "catd_router")
        servers.insert(0, router)
        addr = router.address()
    loadgen = subprocess.Popen(
        [os.path.join(bins, "catd_loadgen"), addr, "swapt", str(accesses), str(PRODUCERS),
         str(CHUNK)], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    live = list(servers)
    while live:
        for s in list(live):
            if s.exited():
                s.reap()
                live.remove(s)
            else:
                s.sample()
        time.sleep(0.005)
    out, _ = loadgen.communicate()
    if loadgen.returncode != 0:
        fail(f"catd_loadgen exited with {loadgen.returncode}:\n{out}")
    return servers


# (role, thread) -> [utime, stime, voluntary, involuntary], summed over sessions.
rows = {}
order = []
for _ in range(sessions):
    for s in session():
        sampled_u = sampled_s = 0
        for comm, utime, stime, vol, invol in sorted(s.threads.values()):
            key = (s.role, comm)
            if key not in rows:
                rows[key] = [0, 0, 0, 0]
                order.append(key)
            row = rows[key]
            row[0] += utime
            row[1] += stime
            row[2] += vol
            row[3] += invol
            sampled_u += utime
            sampled_s += stime
        key = (s.role, "(unsampled)")
        if key not in rows:
            rows[key] = [0, 0, 0, 0]
        rows[key][0] += max(0, s.total[0] - sampled_u)
        rows[key][1] += max(0, s.total[1] - sampled_s)

macc = accesses * sessions / 1e6
print(f"cpu_split: {workload}, {sessions} session(s) of {accesses} accesses, "
      f"{PRODUCERS} producers; CPU in ms per million accesses, switches summed")
print(f"{'process':<10} {'thread':<16} {'user':>9} {'sys':>9} {'voluntary':>10} {'involuntary':>12}")
roles = []
for role, _ in order:
    if role not in roles:
        roles.append(role)
total = [0, 0, 0, 0]
for role in roles:
    for key in [k for k in order if k[0] == role] + [(role, "(unsampled)")]:
        u, s_, vol, invol = rows[key]
        for i, v in enumerate((u, s_, vol, invol)):
            total[i] += v
        print(f"{role:<10} {key[1]:<16} {u * TICK_MS / macc:9.3f} {s_ * TICK_MS / macc:9.3f} "
              f"{vol:10d} {invol:12d}")
print(f"{'total':<27} {total[0] * TICK_MS / macc:9.3f} {total[1] * TICK_MS / macc:9.3f} "
      f"{total[2]:10d} {total[3]:12d}")
EOF
