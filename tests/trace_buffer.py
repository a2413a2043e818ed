"""A trace recorder for tests that streams its rows to a string buffer.

`read` parses the buffer with `load_trace`, the one reader `cnma report`
uses on trace files, so a test checks the rows as they were written.
"""
import io

from cnma.trace import Trace, TraceRecorder, load_trace


class BufferedRecorder(TraceRecorder):
    def __init__(self, run_id, solver, input_names, output_names):
        self.buffer = io.StringIO(newline="")
        super().__init__(run_id, solver, input_names, output_names, self.buffer)

    def text(self) -> str:
        return self.buffer.getvalue()

    def read(self) -> Trace:
        return load_trace(io.StringIO(self.text(), newline=""))
