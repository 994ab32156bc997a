"""SIM010 negative fixture: mux window read lazily per batch.

Same reloadable key as ``sim010_mux_stale.py``, but nothing is cached
during construction — the window is read (and stamp-cached) on the
send path, which re-reads whenever ``conf.version`` moves.  This is
exactly how ``repro.rpc.mux.Multiplexer`` retunes a live connection
without a subscribe listener.
"""


class FreshMux:
    def __init__(self, conf):
        self.conf = conf
        self._conf_stamp = -1
        self._window = 0

    def _current_window(self):
        if self.conf.version != self._conf_stamp:
            self._window = self.conf.get_int("ipc.client.async.max-inflight")
            self._conf_stamp = self.conf.version
        return self._window

    def budget(self, inflight):
        return self._current_window() - inflight
