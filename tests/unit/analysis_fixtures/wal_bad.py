"""Bad WAL discipline: unlogged mutation, unguarded disk write."""


class Mutator:
    def unlogged_insert(self):
        page = self.pool.get(7)
        page.insert_record(b"x", slot=0)  # lint:expect REC001

    def unguarded_flush(self):
        bcb = self.pool.get(7)
        self.faults.crashpoint("flush.before_write")
        self.disk.write_page(bcb.page)  # lint:expect WAL100
