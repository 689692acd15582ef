"""Bad crashpoint reachability: the entry point reaches a durable
write with no crashpoint anywhere on the call path, so the crash
explorer can never fail the transition.  The helper is not an entry
point, so the finding lands on the caller's call."""


class Archiver:
    def snapshot_page(self, addr):
        self._copy_out(addr)  # lint:expect REC040

    def _copy_out(self, addr):
        self.log.force(addr)
        self.archive.backup_from_disk(self.disk, addr)
