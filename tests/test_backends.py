import http.server
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import qfs_forge.backends as backends
from qfs_forge.backends import (
    API_KEY_ENV,
    BackendError,
    CompletionParams,
    LiveBackend,
    MockBackend,
    QUERY_GEN_PARAMS,
    map_ordered,
)

PROMPT_TAIL = "Summary:\n1. The mayor spoke.\n2. The town listened.\n\nQuestions:\n"


class TestCompletionParams:
    def test_defaults_valid(self):
        assert QUERY_GEN_PARAMS.temperature == 0.0
        assert QUERY_GEN_PARAMS.top_p == 1.0
        assert QUERY_GEN_PARAMS.max_tokens == 256

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CompletionParams(temperature=-0.1)
        with pytest.raises(ValueError):
            CompletionParams(top_p=0.0)
        with pytest.raises(ValueError):
            CompletionParams(top_p=1.5)


class TestMockBackend:
    def test_script_consumed_in_call_order(self):
        backend = MockBackend(script=["first", "second"])
        assert backend.complete("p", QUERY_GEN_PARAMS) == "first"
        assert backend.complete("p", QUERY_GEN_PARAMS) == "second"

    def test_generates_after_script_exhausted(self):
        backend = MockBackend(script=["canned"])
        backend.complete("p", QUERY_GEN_PARAMS)
        generated = backend.complete("intro\n" + PROMPT_TAIL, QUERY_GEN_PARAMS)
        assert generated.startswith("1. ")

    def test_generated_matches_summary_line_count(self):
        backend = MockBackend(seed=3)
        completion = backend.complete("intro\n" + PROMPT_TAIL, QUERY_GEN_PARAMS)
        lines = completion.split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("1. ")
        assert lines[1].startswith("2. ")
        assert all(line.endswith("?") for line in lines)

    def test_deterministic_given_prompt_and_seed(self):
        prompt = "intro\n" + PROMPT_TAIL
        assert MockBackend(seed=5).complete(prompt, QUERY_GEN_PARAMS) == MockBackend(
            seed=5
        ).complete(prompt, QUERY_GEN_PARAMS)

    def test_seed_changes_output(self):
        prompt = "intro\n" + PROMPT_TAIL
        outputs = {
            MockBackend(seed=seed).complete(prompt, QUERY_GEN_PARAMS) for seed in range(8)
        }
        assert len(outputs) > 1

    def test_thread_safe_script_consumption(self):
        backend = MockBackend(script=[str(i) for i in range(64)])
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: backend.complete("p", QUERY_GEN_PARAMS), range(64)))
        assert sorted(results, key=int) == [str(i) for i in range(64)]
        assert backend.calls == 64


class TestMapOrdered:
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_results_in_input_order(self, parallelism):
        threads = set()

        def slow_square(x):
            threads.add(threading.get_ident())
            time.sleep(0.001 * (8 - x))  # later items finish first
            return x * x

        assert map_ordered(slow_square, list(range(8)), parallelism) == [x * x for x in range(8)]
        assert (len(threads) > 1) == (parallelism > 1)

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_worker_exception_reaches_caller(self, parallelism):
        def fail_on_three(x):
            if x == 3:
                raise BackendError("item 3 failed")
            return x

        with pytest.raises(BackendError, match="item 3 failed"):
            map_ordered(fail_on_three, list(range(6)), parallelism)

    def test_empty_and_single_item_run_inline(self):
        caller = threading.get_ident()
        assert map_ordered(lambda x: x, [], 4) == []
        assert map_ordered(lambda x: threading.get_ident(), ["only"], 4) == [caller]


class _Handler(http.server.BaseHTTPRequestHandler):
    server_version = "StubCompletion/0.1"

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        self.server.requests.append(
            {"body": body, "auth": self.headers.get("Authorization", "")}
        )
        status, payload = self.server.responses[
            min(len(self.server.requests) - 1, len(self.server.responses) - 1)
        ]
        raw = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.requests = []
    server.responses = [(200, {"text": "1. What happened?"})]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()


@pytest.fixture
def api_key(monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "test-token")


@pytest.fixture
def no_sleep(monkeypatch):
    sleeps = []
    monkeypatch.setattr(backends.time, "sleep", sleeps.append)
    return sleeps


class TestLiveBackend:
    def endpoint(self, server):
        return f"http://127.0.0.1:{server.server_address[1]}/v1/complete"

    def test_requires_api_key(self, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        with pytest.raises(BackendError, match=API_KEY_ENV):
            LiveBackend("http://127.0.0.1:1/complete")

    def test_posts_wire_shape_and_bearer_token(self, stub_server, api_key):
        backend = LiveBackend(self.endpoint(stub_server))
        params = CompletionParams(
            max_tokens=64, temperature=0.5, top_p=0.9, stop_sequences=("\n\n",)
        )
        text = backend.complete("the prompt", params)
        assert text == "1. What happened?"
        request = stub_server.requests[0]
        assert request["auth"] == "Bearer test-token"
        assert request["body"] == {
            "prompt": "the prompt",
            "max_tokens": 64,
            "temperature": 0.5,
            "top_p": 0.9,
            "stop": ["\n\n"],
        }

    def test_non_2xx_raises_with_body(self, stub_server, api_key):
        stub_server.responses = [(400, {"error": "bad prompt"})]
        backend = LiveBackend(self.endpoint(stub_server))
        with pytest.raises(BackendError, match="HTTP 400"):
            backend.complete("p", QUERY_GEN_PARAMS)
        assert len(stub_server.requests) == 1  # 4xx is not retried

    def test_5xx_retries_with_exponential_backoff(self, stub_server, api_key, no_sleep):
        stub_server.responses = [
            (500, {"error": "boom"}),
            (500, {"error": "boom"}),
            (200, {"text": "recovered"}),
        ]
        backend = LiveBackend(self.endpoint(stub_server))
        assert backend.complete("p", QUERY_GEN_PARAMS) == "recovered"
        assert no_sleep == [1.0, 2.0]

    def test_retries_exhaust_after_three_sleeps(self, stub_server, api_key, no_sleep):
        stub_server.responses = [(503, {"error": "down"})]
        backend = LiveBackend(self.endpoint(stub_server))
        with pytest.raises(BackendError, match="HTTP 503"):
            backend.complete("p", QUERY_GEN_PARAMS)
        assert no_sleep == [1.0, 2.0, 4.0]
        assert len(stub_server.requests) == 4

    def test_malformed_response_raises(self, stub_server, api_key):
        stub_server.responses = [(200, {"not_text": 1})]
        backend = LiveBackend(self.endpoint(stub_server))
        with pytest.raises(BackendError, match="malformed"):
            backend.complete("p", QUERY_GEN_PARAMS)
