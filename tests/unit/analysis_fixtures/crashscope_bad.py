"""Bad crash-scope hygiene: durable writes the explorer cannot fail."""


class Flusher:
    def uninstrumented_flush(self):
        bcb = self.pool.get(7)
        self.log.force(bcb.force_addr)
        self.disk.write_page(bcb.page)  # lint:expect REC040

    def uninstrumented_backup(self, addr):
        self.log.force()
        self.archive.backup_from_disk(self.disk, addr)  # lint:expect REC040

    def late_instrumentation(self):
        # A crashpoint *after* the write cannot model failing it.
        bcb = self.pool.get(7)
        self.log.force(bcb.force_addr)
        self.disk.write_page(bcb.page)  # lint:expect REC040
        self.faults.crashpoint("flush.after_write")
