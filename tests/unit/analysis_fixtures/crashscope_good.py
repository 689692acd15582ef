"""Good crash-scope hygiene: every durable write is instrumented."""


class Flusher:
    def instrumented_flush(self):
        bcb = self.pool.get(7)
        if self.faults is not None:
            self.faults.crashpoint("flush.before_write")
        self.log.force(bcb.force_addr)
        self.disk.write_page(bcb.page)

    def instrumented_backup(self, addr):
        if self.faults is not None:
            self.faults.crashpoint("backup.before_copy")
        self.log.force()
        self.archive.backup_from_disk(self.disk, addr)

    def reads_need_no_coverage(self):
        # Reads are not durable state transitions; nothing to instrument.
        return self.disk.read_page(7)
