#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

The first two tests are pure Python. The others build the benchmark into the
checkout's build directory (as run.py does) and generate the inputs of one
seed, which takes about a minute the first time.
"""
import os
import shutil
import socket
import subprocess
import tempfile
import threading
import time
import unittest

import run


class LatencyComputation(unittest.TestCase):
    """Verdict latency of a window is measured from its last contributing
    synopsis: the chunk that carried it, due (open loop) or written (closed
    loop), to the moment the window's [stats] line was read."""

    def setUp(self):
        self.tmp = tempfile.mkdtemp()
        # Six synopses in send order, starts in windows 7,7,8,7,8,9; the
        # watermark can close windows below 9 before the stream ends.
        path = os.path.join(self.tmp, "w.win")
        with open(path, "w") as f:
            f.write("closable_below 9\n7 3\n8 4\n9 5\n")
        self.windows = run.read_windows(path)
        # Chunks of two synopses: (synopses_end, due_ns, written_ns). The
        # first chunk is the session prologue and carries none.
        self.chunks = [(0, 0, 50), (2, 1000, 1100), (4, 2000, 2500), (6, 3000, 3900)]
        self.lines = {7: 9000, 8: 12000, 9: 20000}

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def test_last_contributor_and_closable_windows(self):
        self.assertEqual(self.windows, {7: 3, 8: 4})

    def test_open_loop_measures_from_due_time(self):
        lat = run.window_latencies_ms(self.windows, self.chunks, self.lines, True)
        # Window 7's last synopsis (index 3) rode chunk 2 (due 2000);
        # window 8's (index 4) rode chunk 3 (due 3000).
        self.assertEqual(lat, [(9000 - 2000) / 1e6, (12000 - 3000) / 1e6])

    def test_closed_loop_measures_from_write_time(self):
        lat = run.window_latencies_ms(self.windows, self.chunks, self.lines, False)
        self.assertEqual(lat, [(9000 - 2500) / 1e6, (12000 - 3900) / 1e6])

    def test_window_without_line_fails(self):
        with self.assertRaises(run.BenchError):
            run.window_latencies_ms(self.windows, self.chunks, {7: 9000}, True)


class P99NeedsEnoughWindows(unittest.TestCase):
    def test_refuses_below_1000_windows(self):
        with self.assertRaises(run.BenchError):
            run.latency_summary([1.0] * 999)

    def test_reports_at_1000_windows(self):
        p50, p99 = run.latency_summary([float(i) for i in range(1000)])
        self.assertAlmostEqual(p50, 499.5)
        self.assertAlmostEqual(p99, 989.01)


def built_inputs():
    run.build()
    return run.inputs(1)[0]


class WrongReferenceFails(unittest.TestCase):
    def test_catchup_burst_rejects_a_wrong_reference(self):
        d = built_inputs()
        bad = tempfile.mkdtemp(dir=run.WORK)
        try:
            for name in os.listdir(d):
                if name != "burst.ref":
                    os.symlink(os.path.join(d, name), os.path.join(bad, name))
            with open(os.path.join(d, "burst.ref"), "rb") as f:
                ref = f.read()
            # Drop one verdict line: the run must notice.
            lines = ref.splitlines(True)
            with open(os.path.join(bad, "burst.ref"), "wb") as f:
                f.write(b"".join(lines[:1] + lines[2:]))
            windows = run.read_windows(os.path.join(d, "burst.win"))

            def one(inputs):
                return run.serve_iteration(inputs, "catchup", [], "burst.net", 0,
                                           windows, "burst.ref")

            with self.assertRaisesRegex(run.BenchError, "verdicts differ"):
                one(bad)
            # The unmodified reference passes, with nothing lost.
            r = one(d)
            self.assertEqual(r["ingested"], r["sent"])
        finally:
            shutil.rmtree(bad)


class ThrottledGeneratorReportsLag(unittest.TestCase):
    """The open-loop sender keeps its schedule against a fast reader and
    reports how late it ran against one that reads slowly."""

    def send_to(self, read_delay_s):
        run.build()
        tmp = tempfile.mkdtemp(dir=run.WORK)
        chunks = os.path.join(tmp, "c.net")
        n, size = 256, 64 * 1024
        with open(chunks, "wb") as f:
            f.write(b"\0" * (n * size))
        with open(chunks + ".idx", "w") as f:
            for i in range(n):
                f.write("%d %d\n" % ((i + 1) * size, (i + 1) * 256))
        srv = socket.socket()
        if read_delay_s:
            srv.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)

        def sink():
            c, _ = srv.accept()
            while c.recv(size):
                time.sleep(read_delay_s)
            c.close()

        t = threading.Thread(target=sink)
        t.start()
        log = os.path.join(tmp, "send.log")
        # 65536 synopses due over 0.1 s: 16 MiB at about 170 MB/s.
        r = subprocess.run([run.SAAD_BENCH, "send", "--port=%d" % srv.getsockname()[1],
                            "--chunks=" + chunks, "--rate=655360", "--out=" + log,
                            "--stdout-copy=" + os.path.join(tmp, "out")],
                           stdin=subprocess.DEVNULL)
        t.join()
        srv.close()
        chunks_log = run.parse_send_log(log)["chunks"]
        shutil.rmtree(tmp)
        self.assertEqual(r.returncode, 0)
        return run.lag_p99_ms(chunks_log)

    def test_fast_reader_no_lag(self):
        self.assertLess(self.send_to(0), 50)

    def test_throttled_reader_lag_is_reported(self):
        # The reader takes at most 64 KiB per 2 ms (32 MB/s): the sender
        # ends up about 0.4 s behind its schedule.
        self.assertGreater(self.send_to(0.002), 200)


if __name__ == "__main__":
    unittest.main()
