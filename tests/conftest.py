import threading

import pytest


@pytest.fixture
def bounded():
    """bounded(fn, seconds): fn() on a thread joined within ``seconds``; its result, or its error.

    A call still running after ``seconds`` fails the test instead of hanging it.
    """

    def run(fn, seconds=60.0):
        outcome = {}

        def target():
            try:
                outcome["result"] = fn()
            except BaseException as err:  # raised again on the test's thread
                outcome["error"] = err

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(timeout=seconds)
        assert not thread.is_alive(), f"no result within {seconds} s"
        if "error" in outcome:
            raise outcome["error"]
        return outcome["result"]

    return run
