"""Good crashpoint reachability: the entry point instruments the path
before calling into the uninstrumented durable-write helper."""


class Archiver:
    def snapshot_page(self, addr):
        if self.faults is not None:
            self.faults.crashpoint("archive.before_copy")
        self._copy_out(addr)

    def _copy_out(self, addr):
        self.log.force(addr)
        self.archive.backup_from_disk(self.disk, addr)
