"""Good interprocedural WAL: the entry point forces the log up to the
page's force address before calling into the disk-write funnel."""


class Checkpointer:
    def checkpoint(self):
        bcb = self.pool.bcb_for(7)
        self.log.force(bcb.force_addr)
        self._write_out(bcb)

    def _write_out(self, bcb):
        if self.faults is not None:
            self.faults.crashpoint("flush.before_write")
        self.disk.write_page(bcb.page)
