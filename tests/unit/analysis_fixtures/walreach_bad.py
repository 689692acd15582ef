"""Bad interprocedural WAL: the entry point reaches the disk-write
funnel with no log force anywhere on the call path.  The funnel itself
is not an entry point, so the finding lands on the caller's call."""


class Checkpointer:
    def checkpoint(self):
        bcb = self.pool.bcb_for(7)
        self._write_out(bcb)  # lint:expect WAL100

    def _write_out(self, bcb):
        if self.faults is not None:
            self.faults.crashpoint("flush.before_write")
        self.disk.write_page(bcb.page)
